package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a live exposition endpoint: Prometheus-style text at /metrics,
// the raw snapshot as JSON at /metrics.json, the flight recorder's events
// as a Chrome trace at /trace,
// and the Go profiler under /debug/pprof/ (the mux is private, so the
// stdlib's DefaultServeMux registration does not reach it — the handlers
// are wired explicitly). It holds no metric state itself — it re-evaluates
// the snapshot function on every scrape.
//
// CPU profiles taken from /debug/pprof/profile attribute samples to
// subsystems via runtime pprof labels: the concurrent volatile-GC scan
// goroutine is labeled with its epoch, the group-commit flusher, watchdog
// and stability-tracking commits with their subsystem, so collector work
// separates from mutator work in the flame graph.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP listener on addr (e.g. "localhost:0") exposing the
// snapshot and, at /trace, the flight recorder's events as a Chrome trace.
// With the recorder off events returns none and /trace serves an empty
// (still loadable) trace document.
func Serve(addr string, snap func() Snapshot, events func() []Event) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		WriteEventsChrome(w, events())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(`<!doctype html><title>stableheap</title><h1>stableheap observability</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/metrics.json">/metrics.json</a> — snapshot as JSON</li>
<li><a href="/trace">/trace</a> — Chrome trace_event JSON (load in about://tracing or ui.perfetto.dev)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiler (CPU samples carry subsystem/epoch labels)</li>
</ul>`))
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
