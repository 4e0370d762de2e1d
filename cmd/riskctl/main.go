// Command riskctl is the control plane of the riskserved fleet: a
// process that owns session placement and exposes the same client API as
// a single worker, so clients never learn the topology.
//
//	POST   /v1/sessions                  create a session (placed by rendezvous placement)
//	POST   /v1/sessions/{id}/jobs        forward to the owning worker
//	GET    /v1/sessions/{id}/report      forward to the owning worker
//	GET    /v1/sessions/{id}/journal     forward to the owning worker
//	POST   /v1/sessions/{id}/finalize    forward to the owning worker
//	DELETE /v1/sessions/{id}             forward; forget the route
//	POST   /control/v1/workers           register a worker {name, url}
//	DELETE /control/v1/workers/{name}    deregister; evacuate its sessions first
//	POST   /control/v1/workers/{name}/drain  drain: stop placement, move sessions off
//	GET    /control/v1/topology          workers, health, session placement
//	GET    /v1/risk                      fleet-wide streaming-risk snapshot
//	GET    /v1/risk/stream               fleet-wide live risk deltas (SSE)
//	GET    /healthz                      liveness + fleet summary
//	GET    /debug/vars                   expvar counters
//
// Sessions move between workers by deterministic journal replay, so a
// worker crash, a drain, and a rebalance are all the same operation; the
// prober detects dead workers and re-places their sessions from the
// control plane's shadow journals. The same shadow journals feed the
// plane's streaming risk engine, so /v1/risk aggregates fleet-wide and is
// undisturbed by migration and recovery. See docs/architecture.md
// ("Service plane", "Streaming risk").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve/control"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8070", "listen address")
		probeInterval = flag.Duration("probe-interval", 5*time.Second, "worker health-probe period (0 disables probing)")
		probeFailures = flag.Int("probe-failures", 2, "consecutive probe failures before a worker is declared dead")
		clientTimeout = flag.Duration("client-timeout", 10*time.Second, "per-request timeout when forwarding to workers")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown window after SIGINT/SIGTERM")
		riskWindow    = flag.Int("risk-window", 0, "fleet risk engine sliding-window size in decisions (0 = default)")
		riskSubs      = flag.Int("max-risk-subscribers", 0, "maximum concurrent /v1/risk/stream subscribers (0 = default)")
	)
	flag.Parse()
	cfg := control.Config{
		ProbeFailures:      *probeFailures,
		Client:             &http.Client{Timeout: *clientTimeout},
		RiskWindow:         *riskWindow,
		MaxRiskSubscribers: *riskSubs,
	}
	if err := run(context.Background(), *addr, cfg, *probeInterval, *drainTimeout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "riskctl:", err)
		os.Exit(1)
	}
}

// run starts the control plane and blocks until the context is
// cancelled, a SIGINT/SIGTERM arrives, or the listener fails. ready,
// when non-nil, receives the bound address once the server is listening.
func run(ctx context.Context, addr string, cfg control.Config, probeInterval, drainTimeout time.Duration, logw io.Writer, ready chan<- string) error {
	plane := control.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	if probeInterval > 0 {
		go plane.RunProber(ctx, probeInterval)
	}

	hs := &http.Server{Handler: plane.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "riskctl: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintf(logw, "riskctl: draining (%d routed sessions, up to %v)\n", plane.Sessions(), drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(logw, "riskctl: drained")
		return nil
	}
}
