// Command soda-server runs the prototype segment server on a TCP address,
// optionally shaping delivery with a bandwidth trace — one half of the local
// client-server deployment of the prototype evaluation (§6.2). Segments
// travel only over -addr, in the internal/proto binary protocol that
// soda-player and Figure 12 speak. The -http flag adds a control-plane
// listener that serves no media: server-side decisions (/decide) and live
// introspection — /metrics in Prometheus text format, /debug/decisions as
// JSONL, plus the flight recorder's /debug/spans (per-stage pipeline latency
// spans), /debug/incidents (QoE-watchdog detections), and
// /debug/sessions?id=N (one session's reconstructed timeline, &format=trace
// for Chrome trace-event JSON).
//
// Usage:
//
//	soda-server -addr :9000 -segments 300
//	soda-server -addr :9000 -trace 4g.csv -timescale 10
//	soda-server -addr :9000 -http :9090
//	soda-server -addr :9000 -http :9090 -log-json -trace-export run.trace.json
//	curl http://localhost:9090/metrics
//	curl 'http://localhost:9090/debug/decisions?limit=20'
//	curl 'http://localhost:9090/debug/spans?stage=decide&limit=20'
//	curl 'http://localhost:9090/debug/sessions?id=1&format=trace'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/netem"
	"repro/internal/profiling"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/video"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9000", "listen address")
	segments := flag.Int("segments", 300, "segments in the stream")
	traceFile := flag.String("trace", "", "CSV trace to shape delivery (unshaped if empty)")
	timeScale := flag.Float64("timescale", 1, "stream-time compression factor")
	ladderName := flag.String("ladder", "prototype", "ladder: youtube4k, mobile, prototype, primevideo")
	httpAddr := flag.String("http", "", "also serve HTTP: /decide, /metrics, /debug/decisions, /debug/spans, /debug/incidents, /debug/sessions")
	decideCache := flag.Int("decide-cache", 1<<16, "shared solve-cache entries for /decide sessions (0 disables)")
	tableQuantum := flag.Float64("decide-table-quantum", 0.5, "compiled decision-table quantum for /decide sessions, seconds and Mb/s per cell (0 disables)")
	maxSessions := flag.Int("max-sessions", httpseg.DefaultMaxSessions, "concurrent /decide session cap; new sessions beyond it are shed with 503")
	sessionTTL := flag.Duration("session-ttl", httpseg.DefaultSessionTTL, "evict /decide sessions idle this long (<= 0 disables eviction)")
	maxInflight := flag.Int("max-inflight", httpseg.DefaultMaxInflight, "concurrent in-flight /decide bound; excess load is shed with 503 (< 0 unbounded)")
	rpsPerClient := flag.Float64("rps-per-client", 0, "per-client /decide rate limit in requests/s, 2x burst (0 disables)")
	sweepEvery := flag.Duration("sweep-interval", 30*time.Second, "session/limiter idle-sweep cadence")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain wait for in-flight decides on shutdown")
	logJSON := flag.Bool("log-json", false, "emit lifecycle logs (drain, evict, sweep, incident) as one-line JSON on stderr")
	traceExport := flag.String("trace-export", "", "write the decision ring and pipeline spans as Chrome trace-event JSON to this file at shutdown")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "soda-server: ", log.LstdFlags)
	events := newEventLogger(*logJSON, logger)
	stopProfiles, err := prof.Start()
	if err != nil {
		logger.Fatal(err)
	}

	ladder, err := video.LadderNamed(*ladderName)
	if err != nil {
		logger.Fatal(err)
	}

	srv, err := proto.NewServer(ladder, nil, *segments, logger)
	if err != nil {
		logger.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	listener, err := shapedListener(ln, *traceFile, *timeScale, logger)
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	var svc *httpseg.DecideService
	var intro *introspection
	if *httpAddr != "" {
		// -telemetry reuses the same collector, so the exit snapshot matches
		// what /metrics served.
		col := prof.Collector()
		if col == nil {
			col = telemetry.NewCollector(nil, telemetry.DefaultRingCapacity)
		}
		opts := httpseg.DecideOptions{
			CacheEntries: *decideCache,
			TableQuantum: *tableQuantum,
			MaxSessions:  *maxSessions,
			SessionTTL:   *sessionTTL,
			MaxInflight:  *maxInflight,
			RPSPerClient: *rpsPerClient,
		}
		intro, err = introspectionMux(ladder, opts, col)
		if err != nil {
			logger.Fatal(err)
		}
		svc = intro.svc
		httpLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatal(err)
		}
		httpSrv = &http.Server{Handler: intro.mux}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("http: %v", err)
			}
		}()
		if *sweepEvery > 0 {
			go func() {
				ticker := time.NewTicker(*sweepEvery)
				defer ticker.Stop()
				var incidentsSeen uint64
				for {
					select {
					case <-ctx.Done():
						return
					case now := <-ticker.C:
						if evicted := svc.SweepSessions(now); evicted > 0 {
							events.event("swept idle sessions", "evicted", evicted)
						}
						// Surface new QoE incidents at sweep cadence so an
						// operator tailing the log sees consistency
						// regressions without polling /debug/incidents.
						if total := intro.watchdog.Total(); total > incidentsSeen {
							events.event("qoe incidents",
								"new", total-incidentsSeen, "total", total,
								"oscillation", intro.watchdog.Count(flightrec.KindOscillation),
								"stall", intro.watchdog.Count(flightrec.KindStall),
								"underrun_risk", intro.watchdog.Count(flightrec.KindUnderrunRisk))
							incidentsSeen = total
						}
					}
				}
			}()
		}
		fmt.Printf("introspection on http://%s (/decide /metrics /debug/decisions /debug/spans /debug/incidents /debug/sessions)\n", httpLn.Addr())
	}

	fmt.Printf("serving %d segments of the %s ladder on %s\n", *segments, *ladderName, ln.Addr())
	serveErr := srv.Serve(ctx, listener)
	if httpSrv != nil {
		// Graceful drain: stop admitting /decide work, wait for in-flight
		// decides to finish, flush telemetry via the profiling snapshot below,
		// and report what was drained.
		if svc != nil {
			sessions, clean := svc.Drain(*drainTimeout)
			if clean {
				events.event("drained sessions cleanly", "sessions", sessions)
			} else {
				events.event("drain timed out; in-flight decides abandoned", "sessions", sessions)
			}
			// The -telemetry exit snapshot then carries what a last scrape
			// would: the final gauges and the session table's evictions.
			svc.RefreshMetrics()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		cancel()
		// Trace export happens after the drain so the file carries the final
		// decision ring and flight-recorder request ring.
		if *traceExport != "" && intro != nil {
			if err := flightrec.WriteChromeTraceFile(*traceExport,
				intro.col.Ring.Snapshot(), intro.flight.Snapshot()); err != nil {
				logger.Printf("trace export: %v", err)
			} else {
				events.event("wrote trace export", "path", *traceExport)
			}
		}
	}
	if err := stopProfiles(); err != nil {
		logger.Print(err)
	}
	if serveErr != nil && ctx.Err() == nil {
		logger.Fatal(serveErr)
	}
	logger.Print("shut down")
}

// introspection bundles the HTTP surface with the observability plumbing the
// server needs after setup: the decide service for sweeps and drain, the
// flight recorder and watchdog for trace export and incident logging.
type introspection struct {
	mux      *http.ServeMux
	svc      *httpseg.DecideService
	col      *telemetry.Collector
	flight   *flightrec.Recorder
	watchdog *flightrec.Watchdog
}

// introspectionMux assembles the HTTP surface: server-side SODA at /decide
// and the live introspection endpoints; any other path is a 404. All
// decision recording happens in the /decide handler after the controller
// returns; /metrics only reads, plus pull-only refreshes of gauges and of
// the counters the session table keeps. The flight recorder and QoE watchdog
// are always attached — their steady path is allocation-free, and
// /debug/spans, /debug/incidents and /debug/sessions serve their state.
func introspectionMux(ladder video.Ladder, opts httpseg.DecideOptions, col *telemetry.Collector) (*introspection, error) {
	flight := flightrec.NewRecorder(col.Registry, 0)
	watchdog := flightrec.NewWatchdog(col.Registry, flightrec.WatchdogConfig{})
	opts.FlightRecorder = flight
	opts.Watchdog = watchdog
	svc, err := httpseg.NewDecideService(ladder, opts, col)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/decide", svc)
	mux.Handle("/metrics", telemetry.MetricsHandler(col.Registry, svc.RefreshMetrics))
	mux.Handle("/debug/decisions", telemetry.DecisionsHandler(col.Ring))
	mux.Handle("/debug/spans", flightrec.SpansHandler(flight))
	mux.Handle("/debug/incidents", flightrec.IncidentsHandler(watchdog.Log()))
	mux.Handle("/debug/sessions", flightrec.SessionTimelineHandler(col.Ring, flight, watchdog.Log()))
	return &introspection{mux: mux, svc: svc, col: col, flight: flight, watchdog: watchdog}, nil
}

// eventLogger emits the server's lifecycle events (drain, evict, sweep,
// incident): through the prefixed standard logger by default, as one JSON
// line per event on stderr with -log-json — the shape log shippers ingest
// without a parse rule.
type eventLogger struct {
	plain      *log.Logger
	structured *slog.Logger
}

func newEventLogger(jsonMode bool, plain *log.Logger) *eventLogger {
	e := &eventLogger{plain: plain}
	if jsonMode {
		e.structured = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return e
}

// event logs one message with alternating key, value fields.
func (e *eventLogger) event(msg string, kv ...any) {
	if e.structured != nil {
		e.structured.Info(msg, kv...)
		return
	}
	var b strings.Builder
	b.WriteString(msg)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&b, " %v=%v", kv[i], kv[i+1])
	}
	e.plain.Print(b.String())
}

// shapedListener wraps ln so each connection is paced by the trace in
// traceFile; with no trace file the listener is returned unshaped.
func shapedListener(ln net.Listener, traceFile string, timeScale float64, logger *log.Logger) (net.Listener, error) {
	if traceFile == "" {
		return ln, nil
	}
	f, err := os.Open(traceFile)
	if err != nil {
		return nil, err
	}
	tr, err := trace.ReadCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	logger.Printf("shaping with %s (%.1f Mb/s mean, %gx time)", traceFile, tr.MeanMbps(), timeScale)
	return netem.NewListener(ln, func() (*netem.Shaper, error) {
		return netem.NewShaper(tr, timeScale)
	}), nil
}
