// Command serve runs the hardened co-design query service: closed-form
// pricing and optimization of the paper's model on a cheap lane, bounded
// live simulations on a heavy lane, with per-request deadlines, admission
// control and graceful drain on SIGTERM. See docs/SERVE.md.
//
// Usage:
//
//	serve -addr :8080 -machine simdefault
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfscale/internal/machine"
	"perfscale/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	machineName := flag.String("machine", "simdefault", "default machine preset or JSON file (requests may override with ?machine=<preset>)")
	heavyWorkers := flag.Int("heavy-workers", 0, "heavy-lane worker pool size (0 = default)")
	heavyQueue := flag.Int("heavy-queue", 0, "heavy-lane queue bound (0 = default, negative = no queue)")
	cheapWorkers := flag.Int("cheap-workers", 0, "cheap-lane worker pool size (0 = default)")
	cheapQueue := flag.Int("cheap-queue", 0, "cheap-lane queue bound (0 = default, negative = no queue)")
	maxSimRanks := flag.Int("max-sim-ranks", 0, "largest p = q²·c admitted to /simulate (0 = default)")
	maxSimN := flag.Int("max-sim-n", 0, "largest n admitted to /simulate (0 = default 4096, also the ceiling)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown before their contexts are cancelled")
	flag.Parse()

	m, err := machine.Resolve(*machineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}

	s := serve.New(serve.Options{
		Machine:      m,
		CheapWorkers: *cheapWorkers,
		CheapQueue:   *cheapQueue,
		HeavyWorkers: *heavyWorkers,
		HeavyQueue:   *heavyQueue,
		MaxSimRanks:  *maxSimRanks,
		MaxSimN:      *maxSimN,
		MetricsSink:  os.Stderr,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serve: listening on %s (machine %s)\n", *addr, m.Name)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "serve: draining...")

	// Two-phase shutdown: flip readiness and refuse new managed work, give
	// in-flight requests the grace period, then cancel their contexts —
	// which aborts any running simulations — and close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if _, err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
		os.Exit(1)
	}
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	fmt.Fprintln(os.Stderr, "serve: drained")
}
