package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func serveTestServer(t *testing.T) *Server {
	t.Helper()
	var commits Counter
	var lat Histogram
	commits.Add(42)
	lat.Observe(1500)
	lat.Observe(90000)
	bb := NewBlackBox(16)
	bb.Record(EvTxAbort, 7, 0, 0)
	snap := func() Snapshot {
		s := NewSnapshot()
		s.SetCounter("tx_committed_total", int64(commits.Load()))
		s.SetHist("tx_commit_ns", lat.Snapshot())
		return s
	}
	srv, err := Serve("127.0.0.1:0", snap, bb.Events)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServePrometheus(t *testing.T) {
	srv := serveTestServer(t)
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE stableheap_tx_committed_total counter",
		"stableheap_tx_committed_total 42",
		"# TYPE stableheap_tx_commit_ns histogram",
		`stableheap_tx_commit_ns_bucket{le="+Inf"} 2`,
		"stableheap_tx_commit_ns_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q:\n%s", want, body)
		}
	}
}

func TestServeJSON(t *testing.T) {
	srv := serveTestServer(t)
	code, body := get(t, "http://"+srv.Addr()+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON endpoint does not parse: %v", err)
	}
	if snap.Counter("tx_committed_total") != 42 {
		t.Errorf("counter = %d, want 42", snap.Counter("tx_committed_total"))
	}
	if snap.Hist("tx_commit_ns").Count != 2 {
		t.Errorf("histogram count = %d, want 2", snap.Hist("tx_commit_ns").Count)
	}
}

func TestServeTrace(t *testing.T) {
	srv := serveTestServer(t)
	code, body := get(t, "http://"+srv.Addr()+"/trace")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace endpoint does not parse: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "tx-abort" {
			found = true
		}
	}
	if !found {
		t.Error("recorded instant event missing from /trace")
	}
}

func TestServePprof(t *testing.T) {
	srv := serveTestServer(t)
	code, body := get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof index status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
	// A concrete profile must be servable too (debug=1 renders as text).
	code, body = get(t, "http://"+srv.Addr()+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("goroutine profile status %d", code)
	}
	if !strings.Contains(body, "goroutine profile") {
		t.Error("goroutine profile body looks wrong")
	}
}

func TestServeIndexAndNotFound(t *testing.T) {
	srv := serveTestServer(t)
	code, body := get(t, "http://"+srv.Addr()+"/")
	if code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	for _, link := range []string{"/metrics", "/metrics.json", "/trace", "/debug/pprof/"} {
		if !strings.Contains(body, link) {
			t.Errorf("index page lacks link to %s", link)
		}
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path returned %d, want 404", code)
	}
}
