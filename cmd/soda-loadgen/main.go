// Command soda-loadgen replays calibrated ABR workloads against the /decide
// control plane and reports the latency distribution plus the admission and
// eviction counters — the fleet operator's view of soda-server, and the
// harness behind CI's p99 decide-latency gate.
//
// Two arrival processes: closed loop (-mode closed, N sessions each waiting
// for their previous decide plus -think) and open loop (-mode open, Poisson
// arrivals at -rps, latency measured from the scheduled arrival so queueing
// counts). Targets: a live server over HTTP (-target http://host:port) or an
// in-process DecideService (default) configured with the same control-plane
// knobs soda-server exposes.
//
// Usage:
//
//	soda-loadgen -mode open -sessions 50000 -requests 200000 -rps 40000
//	soda-loadgen -mode closed -sessions 64 -requests 10000 -think 100ms
//	soda-loadgen -target http://127.0.0.1:9090 -sessions 100 -requests 5000
//	soda-loadgen -requests 50000 -max-p99-ms 1 -max-rejected-pct 0
//
// With -max-p99-ms, -max-rejected-pct or -max-incidents-per-1k set, the exit
// status is the gate: 0 when the run meets the thresholds, 1 when it does
// not. `make loadgen-gate` runs the open loop at 50000 sessions with all
// three.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/loadgen"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "soda-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run is main minus the process exit, for tests.
func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("soda-loadgen", flag.ContinueOnError)
	mode := fs.String("mode", "closed", "arrival process: closed or open")
	sessions := fs.Int("sessions", 64, "virtual session count")
	requests := fs.Int("requests", 10000, "total decide budget")
	rps := fs.Float64("rps", 1000, "open-loop target arrival rate")
	think := fs.Duration("think", 0, "closed-loop pause between a session's decides")
	workers := fs.Int("workers", 16, "open-loop dispatch pool size")
	profile := fs.String("profile", "puffer", "throughput calibration: puffer, 5g, 4g")
	sessionLength := fs.Float64("session-length", 120, "synthesized trace length per session, seconds")
	seed := fs.Uint64("seed", 1, "seed for trace synthesis and Poisson arrivals")
	target := fs.String("target", "", "server base URL; empty runs an in-process DecideService")

	// In-process server knobs, mirroring soda-server's flags.
	ladderName := fs.String("ladder", "prototype", "in-process ladder: youtube4k, mobile, prototype, primevideo")
	decideCache := fs.Int("decide-cache", 1<<16, "in-process shared solve-cache entries (0 disables)")
	tableQuantum := fs.Float64("decide-table-quantum", 0.5, "in-process decision-table quantum (0 disables)")
	maxSessions := fs.Int("max-sessions", httpseg.DefaultMaxSessions, "in-process session cap")
	sessionTTL := fs.Duration("session-ttl", httpseg.DefaultSessionTTL, "in-process idle-eviction TTL")
	maxInflight := fs.Int("max-inflight", httpseg.DefaultMaxInflight, "in-process in-flight decide bound")
	rpsPerClient := fs.Float64("rps-per-client", 0, "in-process per-client rate limit (0 disables)")

	maxP99Ms := fs.Float64("max-p99-ms", 0, "fail when p99 decide latency exceeds this many ms (0 disables)")
	maxRejectedPct := fs.Float64("max-rejected-pct", -1, "fail when the rejection percentage exceeds this (negative disables)")
	maxIncidents := fs.Float64("max-incidents-per-1k", 0, "fail when QoE-watchdog incidents per 1k sessions exceed this (0 disables)")
	out := fs.String("out", "", "write the JSON report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadgen.Config{
		Sessions:      *sessions,
		Requests:      *requests,
		RPS:           *rps,
		ThinkTime:     *think,
		Workers:       *workers,
		SessionLength: units.Seconds(*sessionLength),
		Seed:          *seed,
		// Every run carries the QoE watchdog: observation is allocation-free
		// and the incident counts feed the report's per-1k gate field.
		Watchdog: flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{}),
	}
	switch *mode {
	case "closed":
		cfg.Mode = loadgen.ClosedLoop
	case "open":
		cfg.Mode = loadgen.OpenLoop
	default:
		return fmt.Errorf("unknown mode %q (want closed or open)", *mode)
	}
	var err error
	if cfg.Profile, err = tracegen.ProfileNamed(*profile); err != nil {
		return err
	}

	var tgt loadgen.Target
	if *target != "" {
		tgt = &loadgen.HTTPTarget{BaseURL: *target}
	} else {
		ladder, err := video.LadderNamed(*ladderName)
		if err != nil {
			return err
		}
		svc, err := httpseg.NewDecideService(ladder, httpseg.DecideOptions{
			CacheEntries: *decideCache,
			TableQuantum: *tableQuantum,
			MaxSessions:  *maxSessions,
			SessionTTL:   *sessionTTL,
			MaxInflight:  *maxInflight,
			RPSPerClient: *rpsPerClient,
		}, nil)
		if err != nil {
			return err
		}
		tgt = &loadgen.InProc{Svc: svc}
	}

	started := time.Now()
	rep, err := loadgen.Run(cfg, tgt)
	if err != nil {
		return err
	}
	text, err := rep.WriteJSON()
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(text, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote report to %s (%d requests in %v)\n", *out, rep.Requests, time.Since(started).Round(time.Millisecond))
	} else {
		fmt.Fprintf(stdout, "%s\n", text)
	}
	return rep.Gate(*maxP99Ms, *maxRejectedPct, *maxIncidents)
}
