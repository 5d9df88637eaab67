package wal

import (
	"encoding/binary"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// RepairTornTail scans the stable log's raw frames from `from` and
// repairs a torn tail: a crash that arrived mid-force can leave the final
// retained record as a byte-prefix fragment (see storage.Log.CrashTorn).
// Such a record was never acknowledged — its force did not complete — so
// the repair rewinds the device to the fragment's start and recovery
// proceeds as if it were never written.
//
// Classification is deliberately conservative. A frame counts as torn
// only when it is physically incomplete: shorter than its own length
// prefix (or than the minimum header). A complete frame whose CRC fails
// is bit rot, not a tear — it may be an acknowledged commit — and is
// reported as a typed CorruptFrameError, as is any undecodable frame
// with more records after it (a tear can only be last).
//
// The repaired LSN (NilLSN if the log was whole) is returned for
// diagnostics.
func (m *Manager) RepairTornTail(from word.LSN) (word.LSN, error) {
	badLSN := word.NilLSN
	var badFrame []byte
	tailBad := false
	storage.Scan(m.dev, from, true, func(lsn word.LSN, frame []byte) bool {
		if badLSN != word.NilLSN {
			// A record follows the undecodable frame: interior corruption.
			tailBad = false
			return false
		}
		if _, err := Decode(frame); err != nil {
			badLSN = lsn
			badFrame = frame
			tailBad = true
		}
		return true
	})
	if badLSN == word.NilLSN {
		return word.NilLSN, nil
	}
	if tailBad && frameIncomplete(badFrame) {
		m.dev.Base().RepairTail(badLSN)
		return badLSN, nil
	}
	reason := "CRC or decode failure in a complete frame"
	if !tailBad {
		reason = "undecodable frame with records after it"
	}
	return word.NilLSN, &storage.CorruptFrameError{LSN: badLSN, Reason: reason}
}

// frameIncomplete reports whether the frame is physically shorter than
// it declares — the signature of a torn (prefix-only) write, as opposed
// to a complete frame whose contents rotted.
func frameIncomplete(frame []byte) bool {
	if len(frame) < frameHeader+1 {
		return true
	}
	return int(binary.LittleEndian.Uint32(frame[0:4])) > len(frame)
}
