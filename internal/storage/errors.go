package storage

import (
	"errors"
	"fmt"

	"stableheap/internal/word"
)

// The detectable-failure contract: a device (or a fault-injecting wrapper
// around one) that discovers corruption or an unrecoverable I/O condition
// reports it by panicking with one of the typed errors below, naming the
// exact page or LSN. Layers with an error return (core.Recover,
// core.RecoverFromLog) convert the panic back into an error with
// AsDeviceError, so corruption is either repaired or surfaces as a typed
// error — never as silently wrong state.

// ErrCorrupt is the sentinel wrapped by CorruptPageError and
// CorruptFrameError; match with errors.Is.
var ErrCorrupt = errors.New("storage: corruption detected")

// ErrIO is the sentinel wrapped by DeviceIOError; match with errors.Is.
var ErrIO = errors.New("storage: I/O error")

// CorruptPageError reports a page whose contents fail validation (e.g. a
// page checksum mismatch after a torn write or at-rest bit rot).
type CorruptPageError struct {
	Page   word.PageID
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: corrupt page %d: %s", e.Page, e.Reason)
}

func (e *CorruptPageError) Unwrap() error { return ErrCorrupt }

// CorruptFrameError reports a log record that fails to decode (CRC
// mismatch, bad framing) somewhere other than a repairable torn tail.
type CorruptFrameError struct {
	LSN    word.LSN
	Reason string
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("storage: corrupt log record at LSN %d: %s", e.LSN, e.Reason)
}

func (e *CorruptFrameError) Unwrap() error { return ErrCorrupt }

// DeviceIOError reports an I/O failure that persisted past the device
// driver's retry budget. Page is set for page-store operations, LSN for
// log operations (the other is zero).
type DeviceIOError struct {
	Op   string // "read", "write", "force", …
	Page word.PageID
	LSN  word.LSN
}

func (e *DeviceIOError) Error() string {
	if e.LSN != word.NilLSN {
		return fmt.Sprintf("storage: %s failed at LSN %d after retries: %v", e.Op, e.LSN, ErrIO)
	}
	return fmt.Sprintf("storage: %s failed on page %d after retries: %v", e.Op, e.Page, ErrIO)
}

func (e *DeviceIOError) Unwrap() error { return ErrIO }

// AsDeviceError converts a recovered panic value back into the typed
// device error it carries, if it carries one. Recovery entry points use
// it to turn mid-replay corruption detections into returned errors while
// letting every other panic (a genuine bug) propagate.
func AsDeviceError(v any) (error, bool) {
	switch e := v.(type) {
	case *CorruptPageError:
		return e, true
	case *CorruptFrameError:
		return e, true
	case *DeviceIOError:
		return e, true
	}
	return nil, false
}
