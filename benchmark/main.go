// Command benchmark is the repository's end-to-end benchmark: four
// workloads over a file-backed stable heap with real fdatasync, reporting
// the end-to-end metrics BENCHMARK.json gates and a per-layer budget
// beneath them. README.md is the manual.
//
//	benchmark [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-dir d] [-out f] [-trace-out f] [-reps k]
//	benchmark compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// setupRepeats is how often the untraced pass sets its heap up; setup_s is
// the median, so one slow file creation does not read as a regression.
const setupRepeats = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// repResult is one repetition of one workload: the untraced pass's
// end-to-end metrics and the traced pass's per-layer metrics.
type repResult struct {
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// summary is a metric over the repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Reps     []repResult        `json:"reps"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer"`
}

// report is the -out file.
type report struct {
	Schema    string                     `json:"schema"`
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

const reportSchema = "stableheap-benchmark/1"

// options is a parsed command line.
type options struct {
	names    []string // the workloads to run, in workloadDefs' order
	seed     int64
	seconds  float64
	trace    string // "0", "1" or "" for both passes
	dir      string
	out      string
	traceOut string
	reps     int
	setups   int // how often the end-to-end pass sets its heap up
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	o := options{setups: setupRepeats}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload generators")
	fs.Float64Var(&o.seconds, "seconds", 24, "length of the measured window")
	fs.StringVar(&o.trace, "trace", "", "0: end-to-end pass only; 1: per-layer pass only; unset: both (the per-layer pass a third as long)")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "data"), "directory on a real filesystem for the heaps")
	fs.StringVar(&o.out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the per-layer pass's spans as Chrome trace JSON (one workload only)")
	fs.IntVar(&o.reps, "reps", 1, "repeat every workload this often, each with the next seed")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 || o.reps < 1 {
		return o, fmt.Errorf("-seconds and -reps must be positive")
	}
	for _, w := range workloadDefs {
		if *workloadFlag == "" || *workloadFlag == w.Name {
			o.names = append(o.names, w.Name)
		}
	}
	if len(o.names) == 0 {
		return o, fmt.Errorf("unknown workload %q", *workloadFlag)
	}
	if o.traceOut != "" && (len(o.names) != 1 || o.reps != 1 || o.trace == "0") {
		return o, fmt.Errorf("-trace-out needs one workload, one repetition and a per-layer pass")
	}
	return o, nil
}

func runMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
		}
		return 2
	}
	return o.run(stdout, stderr)
}

// run runs the workloads and returns the exit code: 1 if a correctness
// check failed, 2 if the run could not be made.
func (o options) run(stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return fail(err)
	}
	env, err := readEnvironment(o.dir)
	if err != nil {
		return fail(err)
	}
	rep := report{Schema: reportSchema, Env: env, Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadReport{}}
	fmt.Fprintf(stdout, "# cores=%d gomaxprocs=%d go=%s kernel=%s fs=%s commit=%s clients=%d env.fdatasync_us_p50=%.1f comparable=%v\n",
		env.Cores, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.Filesystem, env.Commit, env.Clients, env.FdatasyncP50, env.Comparable)

	ok := true
	var last *workloadResult
	runs := 0
	for _, name := range o.names {
		wr := &workloadReport{}
		rep.Workloads[name] = wr
		for r := 0; r < o.reps; r++ {
			rr := repResult{Seed: o.seed + int64(r), Correct: true}
			for _, traced := range []bool{false, true} {
				if (traced && o.trace == "0") || (!traced && o.trace == "1") {
					continue
				}
				ro := runOpts{seed: rr.Seed, seconds: o.seconds, trace: traced, setups: o.setups}
				if traced {
					ro.setups = 1
					if o.trace == "" {
						ro.seconds = o.seconds / 3
					}
				}
				runs++
				ro.dir = filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), runs))
				res := runWorkload(name, ro)
				if err := os.RemoveAll(ro.dir); err != nil {
					res.fatal(err)
				}
				last = res
				rr.merge(res)
				printResult(stdout, res)
				if traced && o.traceOut != "" && res.tr != nil {
					if err := res.tr.writeChrome(o.traceOut); err != nil {
						return fail(err)
					}
				}
			}
			ok = ok && rr.Correct
			wr.Reps = append(wr.Reps, rr)
		}
		wr.summarise()
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if len(o.names) == 1 && o.reps == 1 && o.trace != "" {
		// One workload, one pass: end with the acceptance driver's line.
		if err := printContractLine(stdout, last); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: a correctness check failed")
		return 1
	}
	return 0
}

func runWorkload(name string, o runOpts) *workloadResult {
	var res *workloadResult
	if name == "crash-recover" {
		res = runCrashRecover(o)
	} else {
		for _, s := range loadSpecs {
			if s.name == name {
				res = runLoad(s, o)
			}
		}
	}
	if o.trace && res.Correct {
		layerProc(res.PerLayer)
		if err := layerProbes(res.PerLayer, filepath.Join(o.dir, "probes")); err != nil {
			res.fatal(err)
		}
	}
	return res
}

func (rr *repResult) merge(res *workloadResult) {
	rr.Correct = rr.Correct && res.Correct
	rr.Attempted += res.Attempted
	rr.Failed += res.Failed
	rr.Errors = append(rr.Errors, res.Errors...)
	if res.Traced {
		rr.PerLayer = res.PerLayer
	} else {
		rr.EndToEnd = res.EndToEnd
	}
}

func (wr *workloadReport) summarise() {
	collect := func(pick func(repResult) metricSet) map[string]summary {
		out := map[string]summary{}
		for _, rr := range wr.Reps {
			for name, m := range pick(rr) {
				s := out[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				out[name] = s
			}
		}
		for name, s := range out {
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			out[name] = s
		}
		return out
	}
	wr.EndToEnd = collect(func(rr repResult) metricSet { return rr.EndToEnd })
	wr.PerLayer = collect(func(rr repResult) metricSet { return rr.PerLayer })
}

// printResult prints one pass as a "workload name unit value" table.
func printResult(w io.Writer, res *workloadResult) {
	ms := res.EndToEnd
	if res.Traced {
		ms = res.PerLayer
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		line := fmt.Sprintf("%-14s %-36s %-9s %.6g", res.Workload, name, m.Unit, m.Value)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s %-36s %-9s %v  attempted=%d failed=%d\n", res.Workload, "correct", "-", res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%-14s ERROR %s\n", res.Workload, e)
	}
}

// printContractLine prints the single JSON object the acceptance driver
// reads: exactly the metrics BENCHMARK.json lists for this kind of pass.
func printContractLine(w io.Writer, res *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, have := endToEndDefs, res.EndToEnd
	if res.Traced {
		defs, have = perLayerDefs, res.PerLayer
	}
	ms := map[string]value{}
	for _, d := range defs {
		ms[d.Name] = value{Value: have[d.Name].Value, Unit: d.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": attempted, "failed": res.Failed, "metrics": ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
