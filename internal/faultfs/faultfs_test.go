package faultfs_test

import (
	"bytes"
	"errors"
	"testing"

	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

const pageSize = 1024

// rig is an injector with a Disk and a Log opened over its two wrapped
// memory backings.
type rig struct {
	in     *faultfs.Injector
	db, lb storage.Backing
	disk   *storage.Disk
	log    *storage.Log
}

func newRig(t *testing.T, plan faultfs.Plan) *rig {
	t.Helper()
	in := faultfs.New(plan)
	r := &rig{in: in, db: in.Wrap(storage.NewMemBacking()), lb: in.Wrap(storage.NewMemBacking())}
	var err error
	if r.disk, err = storage.OpenDisk(r.db, pageSize); err != nil {
		t.Fatal(err)
	}
	if r.log, err = storage.OpenLog(r.lb, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// restart crashes the devices (with the plan's crash-time faults) and
// reopens them from the wrapped bytes.
func (r *rig) restart(t *testing.T) {
	t.Helper()
	r.in.Crash(r.log)
	r.log.Crash()
	r.disk.Abandon()
	r.log.Abandon()
	var err error
	if r.disk, err = storage.OpenDisk(r.db, 0); err != nil {
		t.Fatal(err)
	}
	if r.log, err = storage.OpenLog(r.lb, 0); err != nil {
		t.Fatal(err)
	}
}

// readPage reads a page, returning the typed device error it panics with.
func readPage(d *storage.Disk, id word.PageID) (data []byte, lsn word.LSN, err error) {
	defer func() {
		if v := recover(); v != nil {
			e, ok := storage.AsDeviceError(v)
			if !ok {
				panic(v)
			}
			err = e
		}
	}()
	data, lsn, _ = d.ReadPage(id)
	return data, lsn, nil
}

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, pageSize) }

// TestTornSlotReopensCorrupt: a slot write no barrier covered, torn at a
// crash, comes back from the reopened Disk as a CorruptPageError — the
// slot's own checksum is what finds it — or, when every sector of the new
// write landed, as the new page whole. The old and new images differ in
// every sector, so no tear can pass for either but whole.
func TestTornSlotReopensCorrupt(t *testing.T) {
	detected := 0
	for seed := int64(1); seed <= 16; seed++ {
		r := newRig(t, faultfs.Plan{Seed: seed, TornPage: true})
		r.disk.WritePage(5, fill(0xAA), 10)
		r.disk.SetMaster(storage.Master{Formatted: true, PageSize: pageSize})
		r.in.Arm()
		r.disk.WritePage(5, fill(0xBB), 20)
		r.restart(t)
		if got := r.in.Stats().TornPages; got != 1 {
			t.Fatalf("seed %d: %d torn pages, want 1", seed, got)
		}
		data, lsn, err := readPage(r.disk, 5)
		var cp *storage.CorruptPageError
		switch {
		case errors.As(err, &cp) && cp.Page == 5:
			detected++
		case err == nil && lsn == 20 && bytes.Equal(data, fill(0xBB)):
		default:
			t.Fatalf("seed %d: torn slot read back as lsn %d, err %v", seed, lsn, err)
		}
	}
	if detected == 0 {
		t.Fatal("no tear over 16 seeds was detected: every one landed whole")
	}
}

// TestSyncedSlotNeverTears: a write the barrier made durable is not a
// tear candidate, so a crash leaves it whole.
func TestSyncedSlotNeverTears(t *testing.T) {
	r := newRig(t, faultfs.Plan{Seed: 3, TornPage: true})
	r.in.Arm()
	r.disk.WritePage(5, fill(0xBB), 20)
	r.disk.SetMaster(storage.Master{Formatted: true, PageSize: pageSize})
	r.restart(t)
	if got := r.in.Stats().TornPages; got != 0 {
		t.Fatalf("%d torn pages after a barrier covered the only write", got)
	}
	if data, lsn, err := readPage(r.disk, 5); err != nil || lsn != 20 || !bytes.Equal(data, fill(0xBB)) {
		t.Fatalf("synced slot read back as lsn %d, err %v", lsn, err)
	}
}

// TestPageRotIsDetected: a bit flipped anywhere in a written slot — header
// or body — fails the slot's validation on the next read.
func TestPageRotIsDetected(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := newRig(t, faultfs.Plan{Seed: seed, PageFlips: 1})
		r.disk.WritePage(5, fill(0xAA), 10)
		r.in.Arm()
		if n := r.in.CorruptAtRest(); n != 1 {
			t.Fatalf("seed %d: %d flips applied, want 1", seed, n)
		}
		var cp *storage.CorruptPageError
		if _, _, err := readPage(r.disk, 5); !errors.As(err, &cp) {
			t.Fatalf("seed %d: rotted slot read back with err %v", seed, err)
		}
	}
}

// TestLogRotIsNeverSilent: a bit flipped anywhere in a forced record —
// its header or its payload — either fails the reopen with a typed
// CorruptFrameError or changes the payload bytes, for the codec's CRC
// above to find. It never goes missing quietly.
func TestLogRotIsNeverSilent(t *testing.T) {
	rec := bytes.Repeat([]byte{0x5A}, 40)
	for seed := int64(1); seed <= 16; seed++ {
		r := newRig(t, faultfs.Plan{Seed: seed, LogFlips: 1})
		lsn := r.log.Append(rec)
		storage.ForceAll(r.log)
		r.in.Arm()
		r.in.CorruptAtRest()
		r.log.Abandon()
		l, err := storage.OpenLog(r.lb, 0)
		var cf *storage.CorruptFrameError
		switch {
		case errors.As(err, &cf):
		case err != nil:
			t.Fatalf("seed %d: reopen failed untyped: %v", seed, err)
		default:
			if got, ok := l.ReadAt(lsn); !ok || bytes.Equal(got, rec) {
				t.Fatalf("seed %d: rotted record reads back ok=%v, unchanged=%v", seed, ok, bytes.Equal(got, rec))
			}
		}
	}
}

// TestSurfacedIOIsTyped: a burst past the retry budget fails the file call
// with ErrIO, which the devices raise as a DeviceIOError — online, and as
// a returned error from a reopen.
func TestSurfacedIOIsTyped(t *testing.T) {
	r := newRig(t, faultfs.Plan{Seed: 1, IOProb: 1, IOBurstMax: 1})
	r.disk.WritePage(5, fill(0xAA), 10)
	r.in.Arm()
	var dio *storage.DeviceIOError
	if _, _, err := readPage(r.disk, 5); !errors.As(err, &dio) || !errors.Is(err, storage.ErrIO) {
		t.Fatalf("read under a surfacing burst: %v", err)
	}
	r.disk.Abandon()
	if _, err := storage.OpenDisk(r.db, 0); !errors.As(err, &dio) {
		t.Fatalf("reopen under a surfacing burst: %v", err)
	}
	if st := r.in.Stats(); st.IOSurfaced != 2 || st.IORetried != 0 {
		t.Fatalf("stats %+v, want two surfaced bursts", st)
	}
}
