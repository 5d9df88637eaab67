package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeReport is a result file in which every workload reports every gated
// metric as 100 in three repetitions; edit changes it before it is written.
func fakeReport(t *testing.T, path string, edit func(*report)) {
	t.Helper()
	rep := &report{Schema: reportSchema, Seconds: 20, Workloads: map[string]*workloadReport{},
		Env: environment{Cores: 2, Filesystem: "ext4", Comparable: true}}
	for _, w := range workloadDefs {
		wr := &workloadReport{}
		for r := 0; r < 3; r++ {
			e := metricSet{}
			for _, d := range endToEndDefs {
				e.set(d.Name, d.Unit, 100)
			}
			e.set("commit_tps", "tx/s", 4000)
			wr.Reps = append(wr.Reps, repResult{Correct: true, Attempted: 10000, EndToEnd: e})
		}
		rep.Workloads[w.Name] = wr
	}
	if edit != nil {
		edit(rep)
	}
	for _, wr := range rep.Workloads {
		wr.summarise()
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// setReps gives one metric of one workload these values, one a repetition.
func setReps(workload, metric string, values ...float64) func(*report) {
	return func(r *report) {
		for i, v := range values {
			m := r.Workloads[workload].Reps[i].EndToEnd[metric]
			m.Value = v
			r.Workloads[workload].Reps[i].EndToEnd[metric] = m
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name     string
		old, new func(*report)
		code     int
		row      string // "workload metric", the row whose verdict is checked
		verdict  string
		stderr   string
	}{
		{name: "inside the bound", new: setReps("bank-hot", "fsyncs_per_commit", 102, 102.1, 101.9),
			code: 0, row: "bank-hot fsyncs_per_commit", verdict: "ok"},
		{name: "beyond the bound", new: setReps("bank-hot", "fsyncs_per_commit", 110, 110.1, 109.9),
			code: 1, row: "bank-hot fsyncs_per_commit", verdict: "regressed"},
		{name: "beyond the bound, spread wider than the bound", new: setReps("bank-hot", "fsyncs_per_commit", 90, 110, 130),
			code: 0, row: "bank-hot fsyncs_per_commit", verdict: "unresolved"},
		{name: "better, however noisy", new: setReps("bank-hot", "fsyncs_per_commit", 50, 80, 99),
			code: 0, row: "bank-hot fsyncs_per_commit", verdict: "ok"},
		{name: "set-up half as slow again but under the floor",
			old: setReps("oo7-cold", "setup_s", 0.3, 0.3, 0.3), new: setReps("oo7-cold", "setup_s", 0.45, 0.45, 0.45),
			code: 0, row: "oo7-cold setup_s", verdict: "ok"},
		{name: "set-up beyond bound and floor",
			old: setReps("oo7-cold", "setup_s", 0.5, 0.5, 0.5), new: setReps("oo7-cold", "setup_s", 0.8, 0.8, 0.8),
			code: 1, row: "oo7-cold setup_s", verdict: "regressed"},
		{name: "from nothing to something",
			old: setReps("bank-hot", "fsyncs_per_commit", 0, 0, 0), new: setReps("bank-hot", "fsyncs_per_commit", 1, 1, 1),
			code: 1, row: "bank-hot fsyncs_per_commit", verdict: "regressed"},
		{name: "ungated rows carry no verdict", new: setReps("bank-hot", "commit_tps", 2000, 2000, 2000),
			code: 0, row: "bank-hot commit_tps", verdict: "not-gated"},
		{name: "more operations fail", new: func(r *report) { r.Workloads["oo7-churn"].Reps[1].Failed = 40 },
			code: 1, row: "oo7-churn failed_share", verdict: "regressed"},
		{name: "a failed verification", new: func(r *report) { r.Workloads["oo7-churn"].Reps[1].Correct = false },
			code: 2, stderr: "failed a correctness check"},
		{name: "a workload is missing", new: func(r *report) { delete(r.Workloads, "crash-recover") },
			code: 2, stderr: "no result for workload crash-recover"},
		{name: "a gated metric is missing", new: func(r *report) {
			for i := range r.Workloads["oo7-cold"].Reps {
				delete(r.Workloads["oo7-cold"].Reps[i].EndToEnd, "setup_s")
			}
		}, code: 2, stderr: "did not report setup_s"},
		{name: "measured on tmpfs", new: func(r *report) { r.Env.Comparable = false },
			code: 2, stderr: "refusing to gate"},
		{name: "another window", new: func(r *report) { r.Seconds = 10 },
			code: 2, stderr: "refusing to gate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
			fakeReport(t, oldPath, c.old)
			fakeReport(t, newPath, c.new)
			var stdout, stderr bytes.Buffer
			if code := compareMain([]string{oldPath, newPath}, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d\n%s%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not say %q", stderr.String(), c.stderr)
			}
			if c.row == "" {
				return
			}
			for _, line := range strings.Split(stdout.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 2 && f[0]+" "+f[1] == c.row {
					if f[len(f)-1] != c.verdict {
						t.Errorf("row %q, want verdict %s", line, c.verdict)
					}
					return
				}
			}
			t.Errorf("no row %q in\n%s", c.row, stdout.String())
		})
	}
}
