package main

import (
	"fmt"
	"os"
	"time"

	"stableheap/internal/workload"
)

// runOpts is one run of one workload.
type runOpts struct {
	dir     string // a directory this run owns; the caller removes it
	seed    int64
	seconds float64 // length of the measured window
	trace   bool    // the per-layer pass: spans, counters and probes
	setups  int     // how often set-up is repeated for setup_s
}

// workloadResult is the outcome of one pass of one workload.
type workloadResult struct {
	Workload  string
	Traced    bool
	Correct   bool
	Attempted int64
	Failed    int64
	Errors    []string
	EndToEnd  metricSet
	PerLayer  metricSet

	tr *tracer // the traced pass's spans, for -trace-out
}

func newResult(name string, o runOpts) *workloadResult {
	return &workloadResult{Workload: name, Traced: o.trace, Correct: true, EndToEnd: metricSet{}, PerLayer: metricSet{}}
}

// fatal marks the run incorrect; err, when not nil, is why.
func (r *workloadResult) fatal(err error) *workloadResult {
	r.Correct = false
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
	}
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1
	}
	return r
}

// check records one verification.
func (r *workloadResult) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		r.Errors = append(r.Errors, err.Error())
	}
}

func oo7Module(slot, assemblies, composites int) *oo7Shape {
	return &oo7Shape{slot: slot, cfg: workload.OO7Config{Assemblies: assemblies, Composites: composites,
		AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}}
}

// The three throughput workloads. BENCHMARK.json and README.md say why
// each exists.
var loadSpecs = []*loadSpec{
	{
		name:        "bank-hot",
		stableWords: 256 << 10,
		bank:        &bankShape{slot: 1, accounts: 4096, fanout: 128},
		mix:         [numOps]int{opTransfer: 100},
		ckptEvery:   4096,
	},
	{
		name:        "oo7-churn",
		stableWords: 96 << 10,
		volWords:    64 << 10,
		oo7:         oo7Module(2, 16, 16),
		mix:         [numOps]int{opRead: 10, opUpdate: 30, opReplace: 60},
		ckptEvery:   512,
	},
	{
		name:        "oo7-cold",
		stableWords: 1 << 20,
		cachePages:  128,
		filePages:   128,
		oo7:         oo7Module(2, 32, 32),
		mix:         [numOps]int{opRead: 85, opUpdate: 15},
		ckptEvery:   512,
	},
}

func (o runOpts) window() window {
	length := time.Duration(o.seconds * float64(time.Second))
	warm := length / 8
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return window{warm: warm, length: length, slices: 6, alternate: o.trace}
}

// runLoad runs one throughput workload: set-up, warm-up and measured
// window, verification, clean shutdown.
func runLoad(spec *loadSpec, o runOpts) *workloadResult {
	res := newResult(spec.name, o)
	tr := newTracer(clients + 1)
	main := tr.tracks[clients]

	var lh *loadHeap
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		var err error
		lh, err = spec.setup(fmt.Sprintf("%s/setup%d", o.dir, i), o.seed, main)
		if err != nil {
			return res.fatal(err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < o.setups-1 {
			lh.h.Close()
			if err := os.RemoveAll(lh.cfg.Dir); err != nil {
				return res.fatal(err)
			}
		}
	}

	run := lh.drive(tr, o.seed, o.window())
	attempted, failed, retried, updates, maxGap := run.tally()
	res.Attempted, res.Failed = attempted, failed
	if run.firstErr != nil {
		res.Correct = false
		res.Errors = append(res.Errors, run.firstErr.Error())
	}
	res.check(lh.verify())
	if !res.Correct {
		return res
	}

	var gc gcProbe
	if o.trace {
		var err error
		if gc, err = probeCollectors(lh); err != nil {
			return res.fatal(err)
		}
		res.check(lh.verify())
	}

	space, err := lh.shutdown(main)
	if err != nil {
		return res.fatal(err)
	}
	spaceAmp := ratio(float64(space), float64(spec.liveBytes()))

	d := diff(run.after, run.before)
	if !o.trace {
		e := res.EndToEnd
		e.setN("setup_s", "s", median(setupS), len(setupS))
		e.set("fsyncs_per_commit", "1/tx", ratio(d.fsyncs(), d.commits()))
		// The rest is printed, not gated (README.md, "Why so little is
		// gated").
		e.set("log_bytes_per_commit", "B", d.logBytesPerCommit())
		run.wallMetrics(e, "", nil, spec.mix[opRead] > 0)
		e.set("space_amp", "ratio", spaceAmp)
		e.set("max_gap_ms", "ms", maxGap)
		e.set("failed_share", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
		return res
	}

	p := res.PerLayer
	layerCounters(p, d, float64(attempted))
	layerSpans(p, tr.analyse())
	gc.report(p)
	p.set("tx.abort_ratio", "ratio", ratio(float64(retried+failed), float64(updates+retried)))
	even := func(s int) bool { return s%2 == 0 }
	odd := func(s int) bool { return s%2 == 1 }
	plain, _ := run.sliceStats(anyOp, even)
	traced, _ := run.sliceStats(anyOp, odd)
	p.set("obs.trace_overhead", "ratio", 1-ratio(traced, plain))
	run.wallMetrics(p, "client.", even, spec.mix[opRead] > 0)
	p.set("client.max_gap_ms", "ms", maxGap)
	p.set("client.space_amp", "ratio", spaceAmp)
	res.tr = tr
	return res
}

// wallMetrics reports rates and latencies as the clients saw them, over
// the slices only selects (nil: all): of the updates, and in a workload
// that has reads also of the reads.
func (r *loadRun) wallMetrics(ms metricSet, prefix string, only func(int) bool, reads bool) {
	slices := 0
	for s := 0; s < r.win.slices; s++ {
		if only == nil || only(s) {
			slices++
		}
	}
	rate, lat := r.sliceStats(isUpdate, only)
	ms.setN(prefix+"commit_tps", "tx/s", rate, slices)
	ms.setN(prefix+"commit_p50_us", "us", lat.p50, lat.n)
	ms.setN(prefix+"commit_p99_us", "us", lat.p99, lat.n)
	ms.setN(prefix+"commit_p999_us", "us", lat.p999, lat.n)
	if reads {
		rate, lat = r.sliceStats(isRead, only)
		ms.setN(prefix+"read_tps", "ops/s", rate, slices)
		ms.setN(prefix+"read_p50_us", "us", lat.p50, lat.n)
		ms.setN(prefix+"read_p99_us", "us", lat.p99, lat.n)
	}
}

// shutdown checkpoints, truncates the log and closes the heap, and returns
// the space its directory then occupies.
func (lh *loadHeap) shutdown(k *track) (int64, error) {
	lh.h.Checkpoint()
	lh.h.TruncateLog()
	k.lifecycle(spClose, lh.h.Close)
	return dirBytes(lh.cfg.Dir)
}
