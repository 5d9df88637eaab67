package obs

import (
	"encoding/binary"
	"errors"
)

// A dump is the ring written out as one frame per boot: a heap's
// FlightDump is one frame, and a file of several heaps' dumps joined in
// the order the heaps ran (shchaos -blackbox) reads back as one boot each.
//
// Frame layout (little-endian):
//
//	magic   "SHBB"                     4 bytes
//	version u8 = 2                     1
//	boot    i64                        8
//	count   u32                        4
//	records count × 58 bytes: seq u64, ts i64, dur i64, kind u16, epoch u64, tx u64, a u64, b u64
//
// Version 1 had no duration word (and numbered the kinds differently); its
// frames are rejected, not reinterpreted.
const (
	bbMagic     = "SHBB"
	bbVersion   = 2
	bbHeaderLen = 4 + 1 + 8 + 4
	bbRecordLen = 8 + 8 + 8 + 2 + 8 + 8 + 8 + 8
)

var errBadFrame = errors.New("obs: malformed black-box frame")

// EncodeDump serializes events into one frame tagged with boot.
func EncodeDump(boot int64, evs []Event) []byte {
	buf := make([]byte, bbHeaderLen+len(evs)*bbRecordLen)
	copy(buf, bbMagic)
	buf[4] = bbVersion
	binary.LittleEndian.PutUint64(buf[5:], uint64(boot))
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(evs)))
	off := bbHeaderLen
	for _, e := range evs {
		binary.LittleEndian.PutUint64(buf[off:], e.Seq)
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(e.TS))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(e.Dur))
		binary.LittleEndian.PutUint16(buf[off+24:], uint16(e.Kind))
		binary.LittleEndian.PutUint64(buf[off+26:], e.Epoch)
		binary.LittleEndian.PutUint64(buf[off+34:], e.Tx)
		binary.LittleEndian.PutUint64(buf[off+42:], e.A)
		binary.LittleEndian.PutUint64(buf[off+50:], e.B)
		off += bbRecordLen
	}
	return buf
}

// decodeFrame parses exactly one frame from the front of b, returning its
// boot tag, events, and the remainder.
func decodeFrame(b []byte) (boot int64, evs []Event, rest []byte, err error) {
	if len(b) < bbHeaderLen || string(b[:4]) != bbMagic || b[4] != bbVersion {
		return 0, nil, nil, errBadFrame
	}
	boot = int64(binary.LittleEndian.Uint64(b[5:]))
	count := int(binary.LittleEndian.Uint32(b[13:]))
	need := bbHeaderLen + count*bbRecordLen
	if count < 0 || len(b) < need {
		return 0, nil, nil, errBadFrame
	}
	evs = make([]Event, count)
	off := bbHeaderLen
	for i := range evs {
		evs[i] = Event{
			Seq:   binary.LittleEndian.Uint64(b[off:]),
			TS:    int64(binary.LittleEndian.Uint64(b[off+8:])),
			Dur:   int64(binary.LittleEndian.Uint64(b[off+16:])),
			Kind:  EventKind(binary.LittleEndian.Uint16(b[off+24:])),
			Epoch: binary.LittleEndian.Uint64(b[off+26:]),
			Tx:    binary.LittleEndian.Uint64(b[off+34:]),
			A:     binary.LittleEndian.Uint64(b[off+42:]),
			B:     binary.LittleEndian.Uint64(b[off+50:]),
		}
		off += bbRecordLen
	}
	return boot, evs, b[need:], nil
}

// BootEvents is one boot's decoded timeline.
type BootEvents struct {
	Boot   int64
	Events []Event
}

// DecodeDumpBoots parses one or more concatenated frames and returns one
// boot per frame, in the order they were written: a chaos seed's dump
// decoded this way reads as its full crash/recover history, oldest first.
func DecodeDumpBoots(b []byte) ([]BootEvents, error) {
	var boots []BootEvents
	for len(b) > 0 {
		boot, evs, rest, err := decodeFrame(b)
		if err != nil {
			return nil, err
		}
		boots = append(boots, BootEvents{Boot: boot, Events: evs})
		b = rest
	}
	return boots, nil
}

// DecodeDump parses one or more concatenated frames and returns the
// newest (last) boot's events in sequence order.
func DecodeDump(b []byte) (boot int64, evs []Event, err error) {
	boots, err := DecodeDumpBoots(b)
	if err != nil || len(boots) == 0 {
		return 0, nil, err
	}
	last := boots[len(boots)-1]
	return last.Boot, last.Events, nil
}
