// Command zkphired is the zkphire proving daemon: a long-running HTTP
// service that compiles and preprocesses circuits once (LRU session cache
// with single-flight deduplication), proves them on demand through a
// bounded job queue with admission control, and serves proofs and
// verifying keys over the library's validated binary wire formats.
//
// Start it, register a circuit, prove, verify:
//
//	zkphired -addr :8080 -srs-vars 16 -workers 0 -inflight 2 -queue 8
//
//	curl -s localhost:8080/circuits -d '{"program":[
//	  {"op":"secret","k":3},
//	  {"op":"mul","a":0,"b":0},
//	  {"op":"mul","a":1,"b":0},
//	  {"op":"add","a":2,"b":0},
//	  {"op":"add_const","a":3,"k":5},
//	  {"op":"assert_eq","a":4,"k":35}]}'
//	curl -s localhost:8080/prove -d '{"circuit_id":"<id>"}'
//	curl -s localhost:8080/verify -d '{"circuit_id":"<id>","proof":"<base64>"}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//
// The worker budget (-workers, 0 = GOMAXPROCS) is shared by everything
// the daemon runs: each of the -inflight concurrent proofs (at most one
// per worker) runs with an even share, and a circuit registration takes
// a proof's place while it preprocesses, so overlapping requests split
// the machine instead of oversubscribing it. -queue bounds the waiting
// room; when it is full the daemon answers 429 immediately rather than
// building a backlog.
//
// The SRS is generated at startup: with -seed, deterministically (tests,
// demos — proofs are reproducible across restarts); without, from system
// randomness. Production deployments would load a ceremony transcript
// instead; see DESIGN.md §1 for what the simulated setup substitutes.
//
// # Cluster roles
//
// -role splits the daemon across machines (README "Running a cluster"
// has the ops guide, DESIGN.md §10 the failure semantics):
//
//	zkphired -role coordinator -addr :8080 -seed 42 -journal jobs.journal
//	zkphired -role worker -addr :8081 -seed 42 -coordinator http://coord:8080
//
// The coordinator is the same client front-end as the single daemon —
// same routes, keys, journal, drain and recovery (internal/service) — over
// a pool of remote workers instead of a local prover: it never proves;
// workers join it, heartbeat, and prove dispatched jobs. Every role uses
// the same SRS flags — coordinator and workers must agree on the SRS
// (same -seed) or proofs will not verify. -role single (the default) is
// the original one-process daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zkphire"
	"zkphire/internal/cluster"
	"zkphire/internal/faultinject"
	"zkphire/internal/journal"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/service"
)

// options carries every flag; each role reads its subset.
type options struct {
	addr         string
	srsVars      int
	seed         int64
	workers      int
	inflight     int
	queue        int
	cache        int
	timeout      time.Duration
	journalPath  string
	drainTimeout time.Duration

	role        string
	coordinator string
	advertise   string
	heartbeat   time.Duration
	evictAfter  time.Duration
	lease       time.Duration
	hedgeDelay  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.srsVars, "srs-vars", 16, "SRS capacity: max circuit logGates+1")
	flag.Int64Var(&o.seed, "seed", 0, "deterministic SRS seed (0 = system randomness)")
	flag.IntVar(&o.workers, "workers", 0, "global worker budget (0 = GOMAXPROCS)")
	flag.IntVar(&o.inflight, "inflight", 2, "proofs running concurrently")
	flag.IntVar(&o.queue, "queue", 8, "queued proofs beyond the in-flight ones (-1 = none)")
	flag.IntVar(&o.cache, "cache", 32, "session-cache capacity (circuits)")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "default per-proof deadline")
	flag.StringVar(&o.journalPath, "journal", "", "job-journal path for crash-safe idempotent proving (empty = no journal)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain deadline after SIGTERM/SIGINT")
	flag.StringVar(&o.role, "role", "single", "single | coordinator | worker")
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL (worker role)")
	flag.StringVar(&o.advertise, "advertise", "", "this worker's base URL as the coordinator dials it (worker role; default derived from -addr)")
	flag.DurationVar(&o.heartbeat, "heartbeat-interval", time.Second, "worker heartbeat cadence (coordinator role)")
	flag.DurationVar(&o.evictAfter, "evict-after", 0, "evict workers silent this long (coordinator role; 0 = 3x heartbeat-interval)")
	flag.DurationVar(&o.lease, "lease-timeout", 0, "per-dispatch lease deadline (coordinator role; 0 = job timeout + 15s)")
	flag.DurationVar(&o.hedgeDelay, "hedge-delay", 0, "issue a second lease for jobs slower than this (coordinator role; 0 = off)")
	flag.Parse()

	var err error
	switch {
	case o.role != "single" && o.role != "coordinator" && o.role != "worker":
		err = fmt.Errorf("unknown -role %q (want single, coordinator, or worker)", o.role)
	case o.role == "worker" && o.coordinator == "":
		err = fmt.Errorf("worker role requires -coordinator")
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// setup arms fault injection and generates the SRS — common to every
// role.
func setup(o options) (*zkphire.SRS, error) {
	if err := faultinject.ArmFromEnv(); err != nil {
		return nil, err
	}
	if faultinject.Enabled() {
		log.Printf("fault injection armed from %s", faultinject.EnvVar)
	}
	if err := pcs.CheckVars(o.srsVars); err != nil {
		return nil, fmt.Errorf("-srs-vars: %w", err)
	}
	started := time.Now()
	var (
		srs *zkphire.SRS
		err error
	)
	if o.seed != 0 {
		log.Printf("generating deterministic SRS (maxVars=%d, seed=%d)", o.srsVars, o.seed)
		srs = zkphire.SetupDeterministic(o.srsVars, o.seed)
	} else {
		log.Printf("generating SRS from system randomness (maxVars=%d)", o.srsVars)
		if srs, err = zkphire.Setup(o.srsVars); err != nil {
			return nil, err
		}
	}
	log.Printf("SRS ready in %v (circuits up to 2^%d rows)", time.Since(started).Round(time.Millisecond), o.srsVars-1)
	return srs, nil
}

func openJournal(path string) (*journal.Journal, error) {
	if path == "" {
		return nil, nil
	}
	jnl, err := journal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	if st := jnl.Stats(); st.TruncatedBytes > 0 {
		log.Printf("journal: truncated %d torn bytes from a crashed append", st.TruncatedBytes)
	}
	return jnl, nil
}

// serve runs handler on addr until SIGTERM/SIGINT, then calls drain
// before shutting the listener down. ready receives the bound listener
// address once serving.
func serve(addr string, handler http.Handler, drainTimeout time.Duration, drain func(context.Context), ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	//zkvet:ignore norawgo daemon lifecycle: the HTTP listener is not prover concurrency and must outlive any worker budget
	go func() { errc <- httpSrv.Serve(l) }()
	ready(l.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining, deadline %v)…", drainTimeout)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	drain(drainCtx)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// run is every role: setup, journal, build the front-end (plus, for a
// worker, the agent that joins it to a pool), finish what the previous
// process left pending, compact, serve, drain.
func run(o options) error {
	if o.role == "worker" && o.journalPath != "" {
		// Durability lives on the coordinator: its front-end journals keyed
		// jobs before dispatch. A worker-side journal would double-count.
		log.Printf("worker role ignores -journal (the coordinator owns the job journal)")
		o.journalPath = ""
	}
	srs, err := setup(o)
	if err != nil {
		return err
	}
	jnl, err := openJournal(o.journalPath)
	if err != nil {
		return err
	}
	if jnl != nil {
		defer jnl.Close()
	}

	// Every role drives the same front-end; what is behind it, and so how
	// it recovers, is all that differs.
	var (
		srv    *service.Server
		replay func() (int, error)
		agent  *cluster.Worker // worker role only
	)
	if o.role == "coordinator" {
		c, err := cluster.New(cluster.Config{
			SRS:               srs,
			Journal:           jnl,
			HeartbeatInterval: o.heartbeat,
			EvictAfter:        o.evictAfter,
			LeaseTimeout:      o.lease,
			HedgeDelay:        o.hedgeDelay,
			DefaultTimeout:    o.timeout,
		})
		if err != nil {
			return err
		}
		// Recovery is asynchronous here: the replays need workers, and
		// workers join after we listen. The journal already holds
		// everything they need.
		srv, replay = c.Server, c.StartRecovery
		log.Printf("zkphired coordinator on %s (heartbeat %v, evict-after %v, hedge %v)", o.addr, o.heartbeat, o.evictAfter, o.hedgeDelay)
	} else {
		svc, err := service.New(service.Config{
			SRS:            srs,
			Workers:        o.workers,
			MaxInflight:    o.inflight,
			QueueDepth:     o.queue,
			CacheSize:      o.cache,
			DefaultTimeout: o.timeout,
			Journal:        jnl,
		})
		if err != nil {
			return err
		}
		// Finish what the previous process started before taking traffic:
		// replayed proofs are byte-identical to the uninterrupted run.
		srv, replay = svc, func() (int, error) { return svc.RecoverJournal(nil) }
		budget := parallel.Workers(o.workers)
		log.Printf("zkphired %s on %s (budget %d workers, %d in-flight × %d workers/proof, queue %d, cache %d circuits)",
			o.role, o.addr, budget, svc.Slots(), parallel.Split(budget, svc.Slots()), o.queue, o.cache)
		if o.role == "worker" {
			agent, err = cluster.NewWorker(cluster.WorkerConfig{
				Service:        svc,
				CoordinatorURL: o.coordinator,
			})
			if err != nil {
				return err
			}
		}
	}
	defer srv.Close()

	if jnl != nil {
		n, err := replay()
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		if n > 0 {
			log.Printf("journal: re-running %d interrupted job(s)", n)
		}
		if err := jnl.Compact(); err != nil {
			return fmt.Errorf("journal compact: %w", err)
		}
	}

	// Graceful drain: stop admission first (503 + Retry-After), let the
	// unsettled jobs finish inside the deadline, then shut the listener
	// down. Keyed jobs that miss the deadline stay pending in the journal
	// and the next start re-runs them — SIGTERM never loses an accepted
	// job. A worker leaves its pool first, so the coordinator re-dispatches
	// instead of waiting out lease deadlines.
	return serve(o.addr, srv.Handler(), o.drainTimeout, func(ctx context.Context) {
		if agent != nil {
			agent.Close()
		}
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain deadline passed with jobs still running; keyed jobs remain journaled, leases are re-dispatched")
		}
	}, func(bound net.Addr) {
		if agent != nil {
			join(agent, o, bound)
		}
	})
}

// join runs from serve's ready hook, once the listener is bound — the
// advertised URL must be dialable before the coordinator learns it.
func join(w *cluster.Worker, o options, bound net.Addr) {
	u := o.advertise
	if u == "" {
		u = "http://" + dialableHostPort(bound)
	}
	w.SetAdvertiseURL(u)
	log.Printf("joining %s as %s", o.coordinator, u)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.Start(ctx); err != nil {
		// Joining failed for two straight minutes: the coordinator URL is
		// almost certainly wrong. Die loudly rather than serve a pool we
		// never joined.
		log.Printf("join failed: %v", err)
		p, _ := os.FindProcess(os.Getpid())
		p.Signal(syscall.SIGTERM)
		return
	}
	log.Printf("joined %s as worker %s", o.coordinator, w.ID())
}

// dialableHostPort rewrites a bound listener address into one another
// machine could plausibly dial: wildcard hosts become 127.0.0.1 (good
// for local clusters; multi-host deployments should pass -advertise).
func dialableHostPort(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// logRequests is a minimal access log: method, path, status, duration.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		log.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Millisecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
