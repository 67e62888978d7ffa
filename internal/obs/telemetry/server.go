package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"bftfast/internal/obs"
)

// PeerStatus is one peer's liveness as seen by this node's status
// exchange.
type PeerStatus struct {
	ID        int     `json:"id"`
	HeardAgoS float64 `json:"heard_ago_s"` // seconds since last status; < 0: never heard
	Live      bool    `json:"live"`
}

// Status is the /statusz document: the node's protocol position, taken in
// its event context by the host's Status closure.
type Status struct {
	Node          int          `json:"node"`
	Role          string       `json:"role"` // "replica" or "client"
	View          int64        `json:"view"`
	LastExecuted  int64        `json:"last_executed"`
	LastStable    int64        `json:"last_stable"`
	Peers         []PeerStatus `json:"peers,omitempty"`
	UptimeSeconds float64      `json:"uptime_s"`

	// Checkpoints the replica retains, and how many it has had to
	// serialize because a peer fetched them: with a Checkpointer service
	// that is the one O(state) pause left, and it is counted here.
	CheckpointsRetained     int   `json:"checkpoints_retained"`
	CheckpointsMaterialized int64 `json:"checkpoints_materialized"`

	// Commits is the piggyback policy seen from outside (replicas only).
	Commits obs.CommitCounts `json:"commits"`
}

// Options configures a Server. The three closures read node state; a nil
// closure disables its endpoint (404 for /statusz and /flight, 503 for
// /metrics). Closures returning an error report 503 — the shape hosts use
// once their node has closed.
type Options struct {
	// Addr is the listen address ("host:port"; port 0 picks a free one).
	Addr string

	// Namespace prefixes every rendered metric name; empty means "bft".
	Namespace string

	// Labels are constant labels stamped on every series (typically the
	// node id and role).
	Labels map[string]string

	// Snapshot returns the node's metrics snapshot, taken in its event
	// context.
	Snapshot func() ([]obs.Metric, error)

	// Status returns the /statusz document.
	Status func() (Status, error)

	// FlightEvents returns the node's flight-recorder ring for the
	// /flight download endpoint.
	FlightEvents func() ([]obs.Event, error)
}

// Server is a running telemetry endpoint. Create with Serve; stop with
// Close — hosts must close it before tearing down the node whose closures
// it serves (bft.Replica.Close does), so an in-flight scrape never races
// node shutdown.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve binds opts.Addr and serves the telemetry plane on it:
//
//	/metrics       Prometheus text exposition of the registry snapshot
//	/healthz       200 "ok" while the node answers, 503 once it is gone
//	/statusz       JSON protocol position (view, frontier, peers, checkpoints)
//	/flight        BFTTRC01 download of the flight-recorder ring
//	/debug/pprof/  the standard Go profile handlers
func Serve(opts Options) (*Server, error) {
	if opts.Namespace == "" {
		opts.Namespace = "bft"
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listening on %q: %w", opts.Addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Snapshot == nil {
			http.Error(w, "no metrics source", http.StatusServiceUnavailable)
			return
		}
		ms, err := opts.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, opts.Namespace, opts.Labels, ms)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Status != nil {
			if _, err := opts.Status(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Status == nil {
			http.NotFound(w, r)
			return
		}
		st, err := opts.Status()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		if opts.FlightEvents == nil {
			http.NotFound(w, r)
			return
		}
		events, err := opts.FlightEvents()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="flight.bfttrc"`)
		_ = obs.WriteTrace(w, events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (resolving a requested port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers, then waits for the
// serve goroutine to exit. Safe to call more than once.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
