package wal

import (
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
// Whether a record is torn is the log's to say, not the frame's: the
// undecodable record is rewound only when it is the one storage.Log's
// TornTail names — a payload shorter than its storage header declares. A
// frame that is physically complete but fails to decode is bit rot, not a
// tear (it may be an acknowledged commit, and its own length prefix may be
// the rotted field), and is reported as a typed CorruptFrameError, as is
// any undecodable frame with more records after it.
//
// The repaired LSN (NilLSN if the log was whole) is returned for
// diagnostics.
func (m *Manager) RepairTornTail(from word.LSN) (word.LSN, error) {
	badLSN := word.NilLSN
	tailBad := false
	storage.Scan(m.dev, from, true, func(lsn word.LSN, frame []byte) bool {
		if badLSN != word.NilLSN {
			// A record follows the undecodable frame: interior corruption.
			tailBad = false
			return false
		}
		if _, err := Decode(frame); err != nil {
			badLSN = lsn
			tailBad = true
		}
		return true
	})
	if badLSN == word.NilLSN {
		return word.NilLSN, nil
	}
	log := m.dev.Base()
	if tailBad && log.TornTail() == badLSN {
		log.RepairTail(badLSN)
		return badLSN, nil
	}
	reason := "CRC or decode failure in a complete frame"
	if !tailBad {
		reason = "undecodable frame with records after it"
	}
	return word.NilLSN, &storage.CorruptFrameError{LSN: badLSN, Reason: reason}
}
