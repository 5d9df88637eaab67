package faultfs

import (
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// SlowLog gives a LogDevice a fixed synchronous-force latency — the model
// of a real disk, where the commit force, not the CPU, bounds throughput —
// under storage.LogDevice's contract: a force takes its batch first and
// pays the latency with no lock held, and StableLSN moves only once it is
// paid. What the scaling experiments and the commit-force tests measure
// over it, committers overlapping force waits, reproduces on any machine.
type SlowLog struct {
	storage.LogDevice
	delay  time.Duration
	stable storage.AtomicLSN // the inner device's, minus a force in flight
}

// NewSlowLog wraps dev so that every force takes at least delay.
func NewSlowLog(dev storage.LogDevice, delay time.Duration) *SlowLog {
	l := &SlowLog{LogDevice: dev, delay: delay}
	l.stable.Store(dev.StableLSN())
	return l
}

func (l *SlowLog) Force(lsn word.LSN) {
	if lsn < l.StableLSN() {
		return
	}
	l.LogDevice.Force(lsn)
	through := l.LogDevice.StableLSN()
	time.Sleep(l.delay)
	l.stable.Store(through)
}

// StableLSN never runs ahead of the inner device's (Crash moves that back).
func (l *SlowLog) StableLSN() word.LSN {
	return min(l.stable.Load(), l.LogDevice.StableLSN())
}
