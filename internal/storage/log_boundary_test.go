package storage

import (
	"testing"

	"stableheap/internal/word"
)

// Boundary-condition tests for the log: zero-length records, frames
// landing exactly on segment ends, torn crashes at every cut position, and
// the torn-tail repair at its edges. These pin down what recovery relies
// on: the log it opens ends in a whole record.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLogAppendRejectsZeroLength(t *testing.T) {
	for _, data := range [][]byte{nil, {}} {
		l := NewLog(64)
		mustPanic(t, "Append(empty)", func() { l.Append(data) })
		if l.EndLSN() != 1 || l.Stats().Appends != 0 {
			t.Fatalf("rejected append mutated the device: end=%d stats=%+v", l.EndLSN(), l.Stats())
		}
	}
}

// TestLogFrameAtSegmentEnd pins truncation behavior when a record ends
// exactly on a segment boundary versus straddling it: only records whose
// last byte lies strictly inside reclaimed segments are dropped.
func TestLogFrameAtSegmentEnd(t *testing.T) {
	const seg = 64
	cases := []struct {
		name      string
		sizes     []int // record sizes appended in order
		keep      int   // index of the record Truncate keeps from
		wantGone  int   // records expected dropped
		wantTrunc word.LSN
	}{
		// One record exactly fills segment 1 ([1,65)); truncating to the
		// second record reclaims the whole first segment.
		{"exact fill dropped", []int{seg, 8}, 1, 1, seg + 1},
		// A record straddling the boundary survives reclamation (its last
		// bytes live in segment 2) even though it starts below the new
		// truncation point — the documented "may retain a little more".
		{"straddler retained", []int{seg - 4, 8, 8}, 2, 1, seg + 1},
		// Two records tiling segment 1 exactly; truncating to the third
		// drops both.
		{"tiled fill dropped", []int{seg / 2, seg / 2, 8}, 2, 2, seg + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog(seg)
			lsns := make([]word.LSN, len(tc.sizes))
			for i, n := range tc.sizes {
				lsns[i] = l.Append(make([]byte, n))
			}
			ForceAll(l)
			l.Truncate(lsns[tc.keep])
			if l.TruncLSN() != tc.wantTrunc {
				t.Fatalf("TruncLSN = %d, want %d", l.TruncLSN(), tc.wantTrunc)
			}
			for i, lsn := range lsns {
				_, ok := l.ReadAt(lsn)
				if want := i >= tc.wantGone; ok != want {
					t.Fatalf("ReadAt(record %d at %d) = %v, want %v", i, lsn, ok, want)
				}
			}
			// Scan from the truncation point sees exactly the survivors
			// that start at or beyond it (a retained straddler starts
			// below it and is reachable only by exact ReadAt).
			want := 0
			for i := tc.wantGone; i < len(lsns); i++ {
				if lsns[i] >= l.TruncLSN() {
					want++
				}
			}
			n := 0
			Scan(l, l.TruncLSN(), false, func(word.LSN, []byte) bool { n++; return true })
			if n != want {
				t.Fatalf("Scan from TruncLSN saw %d records, want %d", n, want)
			}
		})
	}
}

// TestLogCrashTornCuts drives CrashTorn through every interesting cut
// position over a log with a stable prefix and a three-record volatile
// tail of 8-byte records.
func TestLogCrashTornCuts(t *testing.T) {
	build := func() (*Log, []word.LSN) {
		l := NewLog(0)
		first := l.Append(make([]byte, 8))
		ForceAll(l) // stable prefix: [1, 9)
		tail := []word.LSN{first}
		for i := 0; i < 3; i++ {
			tail = append(tail, l.Append(make([]byte, 8)))
		}
		return l, tail // tail LSNs: 1, 9, 17, 25; end = 33
	}

	cases := []struct {
		name     string
		cut      func(l *Log, lsns []word.LSN) word.LSN
		wantRecs int      // surviving records, all whole
		wantEnd  word.LSN // EndLSN == StableLSN after the tear
	}{
		{"cut at stable LSN is a clean crash",
			func(l *Log, _ []word.LSN) word.LSN { return l.StableLSN() }, 1, 9},
		{"cut at end persists everything",
			func(l *Log, _ []word.LSN) word.LSN { return l.EndLSN() }, 4, 33},
		{"cut on a record boundary leaves no fragment",
			func(_ *Log, lsns []word.LSN) word.LSN { return lsns[2] }, 2, 17},
		{"cut mid-record cuts the torn record off",
			func(_ *Log, lsns []word.LSN) word.LSN { return lsns[2] + 3 }, 2, 17},
		{"cut one byte into the last record",
			func(_ *Log, lsns []word.LSN) word.LSN { return lsns[3] + 1 }, 3, 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, lsns := build()
			l.CrashTorn(tc.cut(l, lsns))
			if l.EndLSN() != tc.wantEnd || l.StableLSN() != tc.wantEnd {
				t.Fatalf("end/stable = %d/%d, want both %d", l.EndLSN(), l.StableLSN(), tc.wantEnd)
			}
			var got []int
			Scan(l, 1, false, func(_ word.LSN, data []byte) bool {
				got = append(got, len(data))
				return true
			})
			if len(got) != tc.wantRecs || l.RetainedBytes() != int64(8*tc.wantRecs) {
				t.Fatalf("%d records (lens %v, %d bytes) survive, want %d whole ones", len(got), got, l.RetainedBytes(), tc.wantRecs)
			}
		})
	}

	t.Run("cut outside the volatile region panics", func(t *testing.T) {
		l, _ := build()
		mustPanic(t, "CrashTorn(below stable)", func() { l.CrashTorn(l.StableLSN() - 1) })
		mustPanic(t, "CrashTorn(beyond end)", func() { l.CrashTorn(l.EndLSN() + 1) })
	})
}

// TestLogRepairTailBoundaries: the torn-tail repair at its edges. A torn
// record that was the first of its segment file takes the file with it, so
// the next force makes it anew; one that was the first record past the
// truncation point leaves the log empty at that point. Either way the next
// record reuses the torn one's LSN.
func TestLogRepairTailBoundaries(t *testing.T) {
	l := NewLog(8)
	a := l.Append(make([]byte, 8))
	ForceAll(l)
	b := l.Append(make([]byte, 8)) // volatile: the force of b is the one torn
	l.CrashTorn(b + 3)             // b's 3 bytes land in a segment file of their own
	if l.EndLSN() != b || l.StableLSN() != b || len(l.segs) != 1 {
		t.Fatalf("after the tear end/stable = %d/%d with %d segments, want both %d and 1", l.EndLSN(), l.StableLSN(), len(l.segs), b)
	}
	if _, ok := l.ReadAt(b); ok {
		t.Fatalf("torn record at %d readable", b)
	}
	if _, ok := l.ReadAt(a); !ok {
		t.Fatalf("intact record at %d lost by the tear", a)
	}
	if got := l.Append(make([]byte, 8)); got != b {
		t.Fatalf("append after the tear got LSN %d, want reuse of %d", got, b)
	}
	ForceAll(l)
	if _, ok := l.ReadAt(b); !ok || len(l.segs) != 2 {
		t.Fatalf("the record reusing %d is not in a segment of its own (%d segments)", b, len(l.segs))
	}

	l2 := NewLog(8)
	l2.Append(make([]byte, 8))
	keep := l2.Append(make([]byte, 8))
	ForceAll(l2)
	l2.Truncate(keep + 8) // the truncation point is past every record
	c := l2.Append(make([]byte, 8))
	l2.CrashTorn(c + 1)
	if l2.EndLSN() != l2.TruncLSN() || l2.RetainedBytes() != 0 {
		t.Fatalf("a tear at TruncLSN left end=%d (trunc %d) retained=%d", l2.EndLSN(), l2.TruncLSN(), l2.RetainedBytes())
	}
}
