// Package dispatchtest is the in-process multi-labd cluster the
// dispatcher's e2e tests and CI reuse: N real labd servers, each behind
// its own httptest listener, with per-backend fault injection — kill
// (connections severed, daemon closed), hang (requests stall until the
// fault clears), and 503 (submissions turned away as queue_full or
// draining while the rest of the API stays healthy). Faults compose
// with the real dispatcher paths: a hung probe excludes the backend at
// planning time, a 503 submission requeues the unit, a kill mid-run
// exercises death detection and requeue onto survivors.
package dispatchtest

import (
	"net/http"
	"sync"
	"time"

	"net/http/httptest"

	"repro/internal/labd"
)

// Fault is a backend's injected failure mode.
type Fault int

const (
	// FaultNone serves normally.
	FaultNone Fault = iota
	// FaultHang stalls every request until the fault clears or the
	// client gives up — a wedged daemon.
	FaultHang
	// FaultQueueFull rejects job submissions with 503 queue_full; every
	// other route (health included) stays normal.
	FaultQueueFull
	// FaultDraining rejects job submissions with 503 draining and
	// reports draining on /v1/healthz, like a daemon mid-shutdown.
	FaultDraining
)

// Backend is one cluster member: a real labd server, its HTTP front,
// and the fault switch.
type Backend struct {
	// Labd is the underlying job-execution server.
	Labd *labd.Server
	// HTTP is the backend's listener.
	HTTP *httptest.Server

	mu      sync.Mutex
	fault   Fault
	unblock chan struct{} // closed to release hung requests
	killed  bool
}

// Addr returns the backend's URL, the form labd.NewClient accepts.
func (b *Backend) Addr() string { return b.HTTP.URL }

// SetExecDelay delays every job this backend executes (see
// labd.Server.SetExecDelay) — the straggler knob heterogeneous-fleet
// tests turn.
func (b *Backend) SetExecDelay(d time.Duration) { b.Labd.SetExecDelay(d) }

// SetFault switches the backend's failure mode; clearing FaultHang
// releases every stalled request.
func (b *Backend) SetFault(f Fault) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fault == FaultHang && f != FaultHang && b.unblock != nil {
		close(b.unblock)
		b.unblock = nil
	}
	b.fault = f
	if f == FaultHang && b.unblock == nil {
		b.unblock = make(chan struct{})
	}
}

// Kill terminates the backend abruptly: in-flight connections are
// severed, the listener stops, and the labd server is closed (canceling
// its running jobs), so clients see connection failures — a dead
// machine, not a graceful drain. Irreversible.
func (b *Backend) Kill() {
	b.mu.Lock()
	if b.killed {
		b.mu.Unlock()
		return
	}
	b.killed = true
	if b.unblock != nil {
		close(b.unblock)
		b.unblock = nil
	}
	b.mu.Unlock()
	b.HTTP.CloseClientConnections()
	b.Labd.Close()
	b.HTTP.Close()
}

// Alive reports whether the backend has not been killed.
func (b *Backend) Alive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.killed
}

// intercept wraps the labd handler with the fault switch.
func (b *Backend) intercept(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		fault := b.fault
		unblock := b.unblock
		b.mu.Unlock()
		switch fault {
		case FaultHang:
			select {
			case <-unblock:
			case <-r.Context().Done():
				return
			}
		case FaultQueueFull:
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				writeEnvelope(w, labd.CodeQueueFull, "injected: job queue is full")
				return
			}
		case FaultDraining:
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				writeEnvelope(w, labd.CodeDraining, "injected: server is draining")
				return
			}
			if r.URL.Path == "/v1/healthz" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write([]byte(`{"status":"ok","workers":1,"jobs":0,"pending":0,"draining":true}` + "\n"))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// writeEnvelope emits the machine-readable labd error envelope with the
// 503 status both injected codes map to.
func writeEnvelope(w http.ResponseWriter, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte(`{"error":{"code":"` + code + `","message":"` + msg + `"}}` + "\n"))
}

// Cluster is a fleet of in-process labd backends.
type Cluster struct {
	Backends []*Backend
}

// New boots n backends, each a fresh labd server with cfg.
func New(n int, cfg labd.Config) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		b := &Backend{Labd: labd.New(cfg)}
		b.HTTP = httptest.NewServer(b.intercept(b.Labd.Handler()))
		c.Backends = append(c.Backends, b)
	}
	return c
}

// Addrs returns every backend's address, killed ones included — a
// dispatcher is expected to cope with dead entries in its list.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Backends))
	for i, b := range c.Backends {
		out[i] = b.Addr()
	}
	return out
}

// Close kills every still-alive backend.
func (c *Cluster) Close() {
	for _, b := range c.Backends {
		b.Kill()
	}
}
