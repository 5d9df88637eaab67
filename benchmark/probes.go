package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"stableheap/internal/lock"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// Probes are short single-threaded loops that call one layer's public
// functions directly, over a fresh filestore directory, so that a layer's
// cost is known apart from the workload that happens to reach it. Counts
// are fixed rather than times, so a probe does the same work on every run.

// gcProbe is a timed full collection of each area on a quiescent heap.
type gcProbe struct {
	stableMs, volatileMs float64
	stableLogBytes       int64
}

func probeCollectors(lh *loadHeap) (gcProbe, error) {
	var p gcProbe
	_, before, _, _ := lh.h.Internal().Log().VolumeByClass()
	t0 := time.Now()
	lh.h.CollectStable()
	p.stableMs = float64(time.Since(t0)) / 1e6
	_, after, _, _ := lh.h.Internal().Log().VolumeByClass()
	p.stableLogBytes = after - before
	t0 = time.Now()
	if _, err := lh.h.CollectVolatile(); err != nil {
		return p, fmt.Errorf("volatile collection probe: %w", err)
	}
	p.volatileMs = float64(time.Since(t0)) / 1e6
	return p, nil
}

func (p gcProbe) report(ms metricSet) {
	ms.set("gc.collect_stable_ms", "ms", p.stableMs)
	ms.set("gc.collect_stable_log_bytes", "B", float64(p.stableLogBytes))
	ms.set("gc.collect_volatile_ms", "ms", p.volatileMs)
}

// timeEach runs fn n times and returns the sorted durations in ns.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	sort.Float64s(out)
	return out
}

// timeAll runs fn n times and returns the mean duration in ns.
func timeAll(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probeFdatasync is the box's floor for one forced log write: a 4 KiB
// write followed by fdatasync on a plain file, 200 times.
func probeFdatasync(dir string) (p50us float64, n int, err error) {
	path := filepath.Join(dir, "fdatasync.probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	n = 200
	var ioErr error
	d := timeEach(n, func(i int) {
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			ioErr = err
		}
		if err := syscall.Fdatasync(int(f.Fd())); err != nil {
			ioErr = err
		}
	})
	return percentile(d, 50) / 1e3, n, ioErr
}

// bankTx appends what one bank transfer logs, up to its commit record.
func bankTx(m *wal.Manager, id word.TxID) word.LSN {
	h := wal.TxHdr{TxID: id}
	h.PrevLSN = m.Append(wal.LogicalRec{TxHdr: h, Addr: 4096, Obj: 4088, Delta: ^uint64(0)})
	h.PrevLSN = m.Append(wal.LogicalRec{TxHdr: h, Addr: 8192, Obj: 8184, Delta: 1})
	return m.Append(wal.CommitRec{TxHdr: h})
}

const probePages = 1280 // ten times the 128-page caches, as in oo7-cold

// layerProbes measures lock, wal, filestore and vm in isolation under dir.
func layerProbes(ms metricSet, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p50, n, err := probeFdatasync(dir)
	if err != nil {
		return fmt.Errorf("fdatasync probe: %w", err)
	}
	ms.setN("env.fdatasync_us_p50", "us", p50, n)

	// lock: one uncontended write lock taken and released.
	locks := lock.NewManager(50 * time.Millisecond)
	const lockN = 200000
	ms.setN("lock.acquire_release_ns", "ns", timeAll(lockN, func(i int) {
		addr := word.Addr(8 * (i%4096 + 1))
		_ = locks.Acquire(1, addr, lock.Write) // uncontended: cannot fail
		locks.Release(1, addr)
	}), lockN)

	// filestore log: the device alone, one small record forced at a time.
	s, err := filestore.Open(filepath.Join(dir, "log-probe"), filestore.Options{})
	if err != nil {
		return err
	}
	rec := make([]byte, 48)
	d := timeEach(300, func(int) { s.Log.Force(s.Log.Append(rec)) })
	ms.setN("filestore.log_force_us_p50", "us", percentile(d, 50)/1e3, len(d))
	ms.setN("filestore.log_force_us_p99", "us", percentile(d, 99)/1e3, len(d))

	// wal: the manager over that device, with the bank's record shape.
	m := wal.NewManager(s.Log)
	const appendN = 30000
	ms.setN("wal.append_ns", "ns", timeAll(appendN, func(i int) {
		m.Append(wal.LogicalRec{TxHdr: wal.TxHdr{TxID: word.TxID(i + 1)}, Addr: 4096, Obj: 4088, Delta: 1})
	}), appendN)
	m.ForceAll()
	id := word.TxID(appendN)
	d = timeEach(300, func(int) {
		id++
		m.Force(bankTx(m, id))
		m.Append(wal.EndRec{TxHdr: wal.TxHdr{TxID: id}})
	})
	ms.setN("wal.append_force_us_p50", "us", percentile(d, 50)/1e3, len(d))
	ms.setN("wal.append_force_us_p99", "us", percentile(d, 99)/1e3, len(d))
	d = timeEach(100, func(int) {
		var last word.LSN
		for j := 0; j < 8; j++ {
			id++
			last = bankTx(m, id)
		}
		m.Force(last)
	})
	ms.setN("wal.force_batch8_us_p50", "us", percentile(d, 50)/1e3, len(d))
	if err := s.Close(); err != nil {
		return err
	}

	// filestore disk: a 128-page cache over 1 280 pages.
	s, err = filestore.Open(filepath.Join(dir, "disk-probe"), filestore.Options{PageSize: 1024, CachePages: 128})
	if err != nil {
		return err
	}
	page := make([]byte, 1024)
	ms.setN("filestore.page_write_ns", "ns", timeAll(probePages, func(i int) {
		page[0] = byte(i)
		s.Disk.WritePage(word.PageID(i), page, word.LSN(i+1))
	}), probePages)
	d = timeEach(5, func(r int) {
		for i := 0; i < 64; i++ {
			s.Disk.WritePage(word.PageID(i), page, word.LSN(probePages+r*64+i+1))
		}
		s.Disk.SetMaster(storage.Master{Formatted: true, PageSize: 1024})
	})
	ms.setN("filestore.set_master_us", "us", percentile(d, 50)/1e3, len(d))
	// A sweep longer than the cache never hits under clock replacement.
	ms.setN("filestore.page_read_miss_us", "us", timeAll(4*probePages, func(i int) {
		s.Disk.ReadPage(word.PageID(i % probePages))
	})/1e3, 4*probePages)
	const hitN = 200000
	ms.setN("filestore.page_read_hit_ns", "ns", timeAll(hitN, func(i int) {
		s.Disk.ReadPage(word.PageID(i % 64))
	}), hitN)

	// vm: the one-level store over that disk, bounded to 128 pages too, so
	// a miss here pays both layers as a cold read in oo7-cold does.
	mem := vm.New(vm.Config{PageSize: 1024, CachePages: 128}, s.Disk, wal.NewManager(s.Log))
	ms.setN("vm.read_miss_us", "us", timeAll(4*probePages, func(i int) {
		mem.ReadWord(word.PageID(i % probePages).Base(1024))
	})/1e3, 4*probePages)
	ms.setN("vm.read_hit_ns", "ns", timeAll(hitN, func(i int) {
		mem.ReadWord(word.PageID(i % 64).Base(1024))
	}), hitN)
	return s.Close()
}
