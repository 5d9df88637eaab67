package storage

import "stableheap/internal/word"

// PageChecksum is the checksum a self-validating page slot stores in its
// header: FNV-1a over the page LSN followed by the page contents. Binding
// the LSN in means a torn write that mixes an old page body with a new
// page LSN (or vice versa) is detected even when the bodies collide. The
// Disk keeps it in the slot header, outside the page, so page geometry is
// unchanged. It is the only page checksum there is.
func PageChecksum(data []byte, lsn word.LSN) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	l := uint64(lsn)
	for i := 0; i < 8; i++ {
		h ^= l & 0xff
		h *= prime64
		l >>= 8
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
