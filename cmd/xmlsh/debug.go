package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"

	"ordxml"
	"ordxml/internal/obs"
)

// serveDebug serves the operational endpoint suite on addr. Every endpoint
// reads the store through the shell's guarded pointer, so open/opendur in the
// REPL swap it safely; endpoints that can answer without a store do, so the
// listener is useful (and probeable) from process start.
//
//	/debug/metrics       metrics snapshot as JSON (expvar-style)
//	/debug/metrics.prom  the same metrics in Prometheus text exposition,
//	                     histograms with cumulative le buckets
//	/debug/trace         buffered request spans as Chrome trace-event JSON
//	/debug/healthz       liveness: 200 once the listener is up
//	/debug/readyz        readiness: 200 iff a store is open and healthy
//	/debug/pprof/...     net/http/pprof profiles
func serveDebug(addr string, sh *shell) {
	if err := http.ListenAndServe(addr, debugMux(sh)); err != nil {
		fmt.Fprintln(os.Stderr, "debug endpoint:", err)
	}
}

// debugMux builds the debug handler tree (split from serveDebug for tests).
func debugMux(sh *shell) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		st := sh.currentStore()
		if st == nil {
			http.Error(w, "no store open", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st.Metrics())
	})
	mux.HandleFunc("/debug/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st := sh.currentStore()
		up := int64(0)
		var snap obs.Snapshot
		if st != nil {
			up = 1
			snap = st.Metrics()
		}
		fmt.Fprintf(w, "# TYPE ordxml_up gauge\nordxml_up %d\n", up)
		if st != nil {
			obs.WritePrometheus(w, snap)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := sh.currentStore()
		if st == nil {
			fmt.Fprintln(w, `{"traceEvents":[]}`)
			return
		}
		st.WriteTrace(w)
	})
	mux.HandleFunc("/debug/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/debug/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := sh.currentStore()
		if st == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(readiness{Ready: false, Problems: []string{"no store open"}})
			return
		}
		probs := st.Health()
		rdy := readiness{Ready: len(probs) == 0, Problems: probs, Gauges: readinessGauges(st)}
		if !rdy.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(rdy)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readiness is the /debug/readyz response body.
type readiness struct {
	Ready    bool             `json:"ready"`
	Problems []string         `json:"problems,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// readinessGauges picks the operational gauges worth echoing next to the
// ready verdict: WAL durability lag, checkpoint age, buffer-pool dirty ratio
// and the last integrity check's status.
func readinessGauges(st *ordxml.Store) map[string]int64 {
	m := st.Metrics()
	out := map[string]int64{}
	for _, name := range []string{
		"wal.durable_lag", "wal.checkpoint_age_ms",
		"bufpool.dirty_ratio_pct", "integrity.last_status",
	} {
		if v, ok := m.Gauges[name]; ok {
			out[name] = v
		}
	}
	return out
}
