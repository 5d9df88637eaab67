package core

import (
	"sync"
	"testing"

	"stableheap/internal/word"
)

// restripe gives a freshly opened, still idle heap n writer stripes instead
// of latchShards, so tests can force stripe collisions.
func restripe(hp *Heap, n int) { hp.shards = make([]sync.Mutex, n) }

// TestLockShardsForCopyPinsExactlyThePagesShards checks lockShardsForCopy
// against the definition, not the arithmetic: for ranges from one word to
// several times the shard count in pages, at every page alignment, the
// shard of every word in [to, to+size) is held, no other shard is, and the
// returned function releases them all.
func TestLockShardsForCopyPinsExactlyThePagesShards(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	defer hp.Close()
	restripe(hp, 4)
	pageWords := cfg.PageSize / word.WordSize
	held := func(m *sync.Mutex) bool {
		if m.TryLock() {
			m.Unlock()
			return false
		}
		return true
	}
	for _, size := range []int{1, 2, pageWords - 1, pageWords, pageWords + 1, 3 * pageWords, 4*pageWords + 1, 9 * pageWords} {
		for off := 0; off < 6*pageWords; off += pageWords/2 + 1 {
			to := word.Addr(0).Add(off)
			want := make(map[*sync.Mutex]bool)
			for w := 0; w < size; w++ {
				want[hp.shardOf(to.Add(w))] = true
			}
			unlock := hp.lockShardsForCopy(to, size)
			for i := range hp.shards {
				if got := held(&hp.shards[i]); got != want[&hp.shards[i]] {
					t.Fatalf("to=%d size=%d: shard %d held=%v, want %v", to, size, i, got, want[&hp.shards[i]])
				}
			}
			unlock()
			for i := range hp.shards {
				if held(&hp.shards[i]) {
					t.Fatalf("to=%d size=%d: shard %d still held after unlock", to, size, i)
				}
			}
		}
	}
}
