// Package repl implements log-shipping replication for the stable heap:
// a primary-side shipper that streams forced WAL frames to standbys, and
// a standby-side applier that runs continuous redo so the replica's
// (disk, stable log) pair always looks like a primary that crashed at
// the applied LSN. Promotion is therefore ordinary bounded recovery over
// the standby's own devices — analysis from the last shipped checkpoint,
// redo of the shipped tail, undo of loser transactions, and resumption
// of any in-flight incremental collection. See DESIGN.md §9.
//
// The wire protocol is four message kinds over any byte stream
// (net.Pipe in-process, TCP across machines), each framed as
//
//	[u8 kind][u32 payloadLen][u32 crc32(payload)][payload]
//
// little-endian, CRC-checked on receipt. Log frames inside a FRAMES
// payload are shipped verbatim — they carry their own length prefix and
// CRC (wal codec framing), so the standby appends them byte-for-byte at
// the same LSNs the primary assigned.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"stableheap/internal/word"
)

// Message kinds. A session is: standby sends HELLO (resume LSN + name),
// primary answers HELLO_ACK (ok | resume point truncated), then the
// primary streams FRAMES while the standby streams ACKs back.
const (
	msgHello    byte = 1
	msgHelloAck byte = 2
	msgFrames   byte = 3
	msgAck      byte = 4
)

// HELLO_ACK statuses.
const (
	helloAckOK        byte = 0 // shipping resumes at the requested LSN
	helloAckTruncated byte = 1 // resume LSN reclaimed; standby needs a new base backup
)

// maxMsgBytes bounds a single message so a corrupt length prefix cannot
// force an unbounded allocation.
const maxMsgBytes = 16 << 20

// ErrResumeTruncated is returned when the standby's resume LSN has been
// truncated away on the primary: the replica is unserviceably stale and
// must be re-seeded from a fresh base backup. Reconnecting cannot help,
// so Standby.Run treats it as terminal rather than backing off.
var ErrResumeTruncated = errors.New("repl: resume LSN truncated on primary; standby needs a new base backup")

// writeMsg frames and writes one protocol message.
func writeMsg(w io.Writer, kind byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads and validates one protocol message.
func readMsg(r io.Reader) (byte, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxMsgBytes {
		return 0, nil, fmt.Errorf("repl: message length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("repl: %s payload failed CRC check", kindName(kind))
	}
	return kind, payload, nil
}

func kindName(kind byte) string {
	switch kind {
	case msgHello:
		return "HELLO"
	case msgHelloAck:
		return "HELLO_ACK"
	case msgFrames:
		return "FRAMES"
	case msgAck:
		return "ACK"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// HELLO payload: [u64 resumeLSN][standby name].
func helloPayload(resume word.LSN, name string) []byte {
	p := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(p[0:8], uint64(resume))
	copy(p[8:], name)
	return p
}

func parseHello(p []byte) (word.LSN, string, error) {
	if len(p) < 8 {
		return 0, "", fmt.Errorf("repl: HELLO payload too short (%d bytes)", len(p))
	}
	return word.LSN(binary.LittleEndian.Uint64(p[0:8])), string(p[8:]), nil
}

// HELLO_ACK payload: [u8 status][u64 lsn] — the accepted resume LSN on
// OK, the primary's stable horizon on rejection (so the standby can
// report how far behind it fell).
func helloAckPayload(status byte, lsn word.LSN) []byte {
	p := make([]byte, 9)
	p[0] = status
	binary.LittleEndian.PutUint64(p[1:9], uint64(lsn))
	return p
}

func parseHelloAck(p []byte) (byte, word.LSN, error) {
	if len(p) != 9 {
		return 0, 0, fmt.Errorf("repl: HELLO_ACK payload is %d bytes, want 9", len(p))
	}
	return p[0], word.LSN(binary.LittleEndian.Uint64(p[1:9])), nil
}

// FRAMES payload: [u64 startLSN][u64 primary stable LSN][raw wal frames].
// startLSN is the LSN of the first frame; consecutive frames are
// self-delimiting via their length prefixes (wal.FrameLen). The stable
// LSN rides along so the standby can measure its replication lag.
func framesPayload(start, stable word.LSN, frames []byte) []byte {
	p := make([]byte, 16+len(frames))
	binary.LittleEndian.PutUint64(p[0:8], uint64(start))
	binary.LittleEndian.PutUint64(p[8:16], uint64(stable))
	copy(p[16:], frames)
	return p
}

func parseFrames(p []byte) (start, stable word.LSN, frames []byte, err error) {
	if len(p) < 16 {
		return 0, 0, nil, fmt.Errorf("repl: FRAMES payload too short (%d bytes)", len(p))
	}
	return word.LSN(binary.LittleEndian.Uint64(p[0:8])),
		word.LSN(binary.LittleEndian.Uint64(p[8:16])), p[16:], nil
}

// ACK payload: [u64 appliedLSN] — everything below is applied AND forced
// to the standby's stable log, so the primary may release it.
func ackPayload(applied word.LSN) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, uint64(applied))
	return p
}

func parseAck(p []byte) (word.LSN, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("repl: ACK payload is %d bytes, want 8", len(p))
	}
	return word.LSN(binary.LittleEndian.Uint64(p)), nil
}
