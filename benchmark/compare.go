package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// verdict judges one workload × metric pair. worse is the share of the old
// median by which the new one is worse (negative when it is better). A pair
// has regressed when it is worse by more than the metric's bound and by
// more than its absolute floor; it is unresolved when it would have
// regressed but either side's own repetitions spread wider than the bound.
func verdict(d metricDef, old, new summary) (worse float64, v string) {
	by := new.Median - old.Median
	if d.Better == "higher" {
		by = -by
	}
	if old.Median != 0 {
		worse = by / old.Median
	}
	iqr := func(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }
	switch {
	case by <= d.Floor || (old.Median != 0 && worse <= d.Bound):
		return worse, "ok"
	case iqr(old) > d.Bound || iqr(new) > d.Bound:
		return worse, "unresolved"
	}
	return worse, "regressed"
}

// failedShare is failed/attempted over every repetition of a workload; ok
// is false if any repetition failed a correctness check.
func (wr *workloadReport) failedShare() (share float64, ok bool) {
	var attempted, failed int64
	ok = true
	for _, rr := range wr.Reps {
		attempted += rr.Attempted
		failed += rr.Failed
		ok = ok && rr.Correct
	}
	return ratio(float64(failed), float64(attempted)), ok
}

// compareMain prints, for every workload and end-to-end metric, old, new
// and their ratio, and for the gated ones a verdict. It returns 1 if any
// pair regressed, and 2 if the files cannot gate anything: a result that is
// not comparable or failed a correctness check, or a workload or gated
// metric missing from either file.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare old.json new.json")
		return 2
	}
	refuse := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark compare: "+format+"\n", a...)
		return 2
	}
	var reps [2]*report
	for i, path := range fs.Args() {
		r, err := readReport(path)
		if err != nil {
			return refuse("%v", err)
		}
		if !r.Env.Comparable {
			return refuse("%s was measured on %s with %d cores and is stamped \"comparable\": false; refusing to gate on it",
				path, r.Env.Filesystem, r.Env.Cores)
		}
		for _, w := range workloadDefs {
			wr := r.Workloads[w.Name]
			if wr == nil || len(wr.Reps) == 0 {
				return refuse("%s has no result for workload %s", path, w.Name)
			}
			if _, ok := wr.failedShare(); !ok {
				return refuse("%s: a repetition of %s failed a correctness check; its numbers measure nothing", path, w.Name)
			}
			for _, d := range endToEndDefs {
				if _, ok := wr.EndToEnd[d.Name]; !ok {
					return refuse("%s: %s did not report %s", path, w.Name, d.Name)
				}
			}
		}
		reps[i] = r
	}
	old, new := reps[0], reps[1]
	if old.Seconds != new.Seconds || old.Env.Filesystem != new.Env.Filesystem || old.Env.Cores != new.Env.Cores {
		return refuse("runs differ in window (%gs, %gs), filesystem (%s, %s) or cores (%d, %d); refusing to gate",
			old.Seconds, new.Seconds, old.Env.Filesystem, new.Env.Filesystem, old.Env.Cores, new.Env.Cores)
	}
	fmt.Fprintf(stdout, "%-14s %-22s %-6s %14s %14s %8s %7s  %s\n", "workload", "metric", "unit", "old", "new", "new/old", "bound", "verdict")
	regressed := 0
	row := func(w, name, unit string, o, n float64, bound, v string) {
		if v == "regressed" {
			regressed++
		}
		fmt.Fprintf(stdout, "%-14s %-22s %-6s %14.6g %14.6g %8.3f %7s  %s\n", w, name, unit, o, n, ratio(n, o), bound, v)
	}
	for _, w := range workloadDefs {
		o, n := old.Workloads[w.Name], new.Workloads[w.Name]
		gated := map[string]bool{"failed_share": true}
		for _, d := range endToEndDefs {
			gated[d.Name] = true
			_, v := verdict(d, o.EndToEnd[d.Name], n.EndToEnd[d.Name])
			row(w.Name, d.Name, d.Unit, o.EndToEnd[d.Name].Median, n.EndToEnd[d.Name].Median, fmt.Sprintf("%.0f%%", d.Bound*100), v)
		}
		of, _ := o.failedShare()
		nf, _ := n.failedShare()
		v := "ok"
		if nf-of > failedShareBound {
			v = "regressed"
		}
		row(w.Name, "failed_share", "ratio", of, nf, fmt.Sprintf("+%g", failedShareBound), v)
		// The ungated rows, for the reader: no bound, no verdict.
		var rest []string
		for name := range o.EndToEnd {
			if _, ok := n.EndToEnd[name]; ok && !gated[name] {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		for _, name := range rest {
			row(w.Name, name, o.EndToEnd[name].Unit, o.EndToEnd[name].Median, n.EndToEnd[name].Median, "-", "not-gated")
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
