// Command soda-sim runs ABR simulations over generated datasets or a trace
// file and prints per-controller QoE aggregates.
//
// Usage:
//
//	soda-sim -dataset 4g -sessions 50 -controllers soda,bola,mpc
//	soda-sim -trace mytrace.csv -controllers soda
//	soda-sim -dataset puffer -cpuprofile cpu.pprof -memprofile mem.pprof
//	soda-sim -dataset 4g -controllers soda -telemetry telemetry.json
//
// Fleet mode advances a whole cohort of virtual players on the time-wheel
// simulator, each worker holding its sessions in flat slices, instead of
// running sessions to completion one at a time — the
// ≥100k-sessions-per-host configuration:
//
//	soda-sim -fleet -fleet-sessions 100000 -fleet-seconds 120
//	soda-sim -fleet -dataset 5g -fleet-sessions 250000 -fleet-workers 8
//
// Fleet runs always attach the QoE-consistency watchdog and report
// incidents per thousand sessions. -trace-export writes the run's decision
// ring as Chrome trace-event JSON, loadable in Perfetto or chrome://tracing:
//
//	soda-sim -fleet -fleet-sessions 200 -trace-export fleet.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/abr"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/profiling"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	_ "repro/internal/baseline"
	"repro/internal/core"
)

func main() {
	dataset := flag.String("dataset", "4g", "dataset profile: puffer, 5g or 4g")
	traceFile := flag.String("trace", "", "CSV trace file (duration_s,mbps); overrides -dataset")
	sessions := flag.Int("sessions", 40, "number of sessions to simulate")
	sessionSeconds := flag.Float64("session-seconds", 600, "session length")
	bufferCap := flag.Float64("buffer", 20, "buffer cap in seconds (live: 20)")
	ladderName := flag.String("ladder", "", "ladder: youtube4k, mobile, prototype, primevideo (default: per dataset)")
	controllers := flag.String("controllers", "soda,hyb,bola,dynamic,mpc", "comma-separated controllers")
	tableQuantum := flag.Float64("table-quantum", 0, "compiled decision-table quantum for the soda controller, seconds and Mb/s per cell (0 disables)")
	seed := flag.Uint64("seed", 42, "generator seed")
	fleet := flag.Bool("fleet", false, "run the time-wheel fleet simulator instead of per-session runs")
	fleetSessions := flag.Int("fleet-sessions", 100000, "fleet mode: concurrent virtual players")
	fleetWorkers := flag.Int("fleet-workers", 0, "fleet mode: worker-pool size (0: GOMAXPROCS)")
	fleetSeconds := flag.Float64("fleet-seconds", 60, "fleet mode: stream-clock seconds to advance the cohort")
	fleetTick := flag.Float64("fleet-tick", 0, "fleet mode: time-wheel tick granularity in seconds (0: 10 ms default)")
	traceExport := flag.String("trace-export", "", "fleet mode: write the run's decision timeline as Chrome trace-event JSON to this file")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	var runErr error
	if *fleet {
		runErr = runFleet(*ladderName, *dataset, *fleetSessions, *fleetWorkers,
			*fleetSeconds, *sessionSeconds, *bufferCap, *fleetTick, *seed, prof.Collector(), *traceExport)
	} else {
		runErr = run(*ladderName, *dataset, *traceFile, *controllers, *sessions, *sessionSeconds, *bufferCap, *tableQuantum, *seed, prof.Collector())
	}
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func run(ladderName, dataset, traceFile, controllers string, sessions int, sessionSeconds, bufferCap, tableQuantum float64, seed uint64, col *telemetry.Collector) error {
	ladder, err := pickLadder(ladderName, dataset)
	if err != nil {
		return err
	}

	traces, sessSeconds, err := buildTraces(traceFile, dataset, sessions, sessionSeconds, seed)
	if err != nil {
		return err
	}

	for _, name := range strings.Split(controllers, ",") {
		name = strings.TrimSpace(name)
		if err := runController(name, ladder, traces, units.Seconds(bufferCap), sessSeconds, tableQuantum, col); err != nil {
			return err
		}
	}
	return nil
}

// runFleet advances a cohort on sim.Fleet and prints its progress counters
// and throughput. The controller configuration is the fleet default
// (production config with compiled tables at quantum 0.5)
// — the same one BenchmarkFleetSim gates. The QoE-consistency watchdog is
// always attached; traceExport ("" disables) additionally records the
// decision ring and writes it as Chrome trace-event JSON after the run.
func runFleet(ladderName, dataset string, sessions, workers int, fleetSeconds, sessionSeconds, bufferCap, tick float64, seed uint64, col *telemetry.Collector, traceExport string) error {
	ladder, err := pickLadder(ladderName, dataset)
	if err != nil {
		return err
	}
	profile, err := tracegen.ProfileNamed(dataset)
	if err != nil {
		return err
	}
	// -trace-export needs the decision ring even when -telemetry is off.
	if traceExport != "" && col == nil {
		col = telemetry.NewCollector(nil, telemetry.DefaultRingCapacity)
	}
	var reg *telemetry.Registry
	if col != nil {
		reg = col.Registry
	}
	watchdog := flightrec.NewWatchdog(reg, flightrec.WatchdogConfig{})
	f, err := sim.NewFleet(sim.FleetConfig{
		Sessions:      sessions,
		Workers:       workers,
		Ladder:        ladder,
		BufferCap:     units.Seconds(bufferCap),
		Profile:       profile,
		SessionLength: units.Seconds(sessionSeconds),
		Seed:          seed,
		TickSeconds:   units.Seconds(tick),
		Telemetry:     col,
		Watchdog:      watchdog,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	start := time.Now()
	f.Advance(units.Seconds(fleetSeconds))
	wall := time.Since(start).Seconds()
	rep := f.Report()
	fmt.Printf("fleet %s: %d sessions on %d workers advanced %.0f stream-seconds in %.2fs wall\n",
		dataset, rep.Sessions, rep.Workers, float64(rep.SimSeconds), wall)
	fmt.Printf("  decisions %d (waits %d), segments %d, stall %.1fs across the cohort\n",
		rep.Decisions, rep.Waits, rep.Segments, float64(rep.StallSeconds))
	if wall > 0 && rep.Decisions > 0 {
		fmt.Printf("  %.0f decisions/s, %.0f ns/decision\n",
			float64(rep.Decisions)/wall, wall*1e9/float64(rep.Decisions))
	}
	fmt.Printf("  %d QoE incidents (%.1f per 1k sessions): %d oscillation, %d stall, %d underrun-risk\n",
		rep.Incidents, rep.IncidentsPerThousand,
		watchdog.Count(flightrec.KindOscillation), watchdog.Count(flightrec.KindStall),
		watchdog.Count(flightrec.KindUnderrunRisk))
	fmt.Printf("  %s\n", rep.Arena)
	if traceExport != "" {
		// Close flushes the per-session recorder batches into the decision
		// ring; without it the export would miss the tail of every session.
		f.Close()
		if err := flightrec.WriteChromeTraceFile(traceExport, col.Ring.Snapshot(), nil); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Printf("  wrote Chrome trace-event JSON to %s\n", traceExport)
	}
	return nil
}

// buildTraces loads the single CSV trace, or generates a dataset when no
// trace file is given. The returned session length is clamped to a loaded
// trace's duration.
func buildTraces(traceFile, dataset string, sessions int, sessionSeconds float64, seed uint64) ([]*trace.Trace, units.Seconds, error) {
	if traceFile != "" {
		tr, err := loadTrace(traceFile)
		if err != nil {
			return nil, 0, err
		}
		sess := units.Seconds(sessionSeconds)
		if sess > tr.Duration() {
			sess = tr.Duration()
		}
		return []*trace.Trace{tr}, sess, nil
	}
	profile, err := tracegen.ProfileNamed(dataset)
	if err != nil {
		return nil, 0, err
	}
	ds, err := tracegen.Generate(profile, sessions, units.Seconds(sessionSeconds), seed)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("dataset %s: %d sessions, mean %.1f Mb/s, RSD %.1f%%\n",
		dataset, len(ds.Sessions), ds.MeanMbps(), 100*ds.RSD())
	return ds.Sessions, units.Seconds(sessionSeconds), nil
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.ReadCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return tr, err
}

func runController(name string, ladder video.Ladder, traces []*trace.Trace, bufferCap, sessionSeconds units.Seconds, tableQuantum float64, col *telemetry.Collector) error {
	if _, err := abr.New(name, ladder); err != nil {
		return err
	}
	// -table-quantum compiles the soda decision map once and seats every
	// session of the dataset run on one policy bound to it: the registry's
	// "soda" configuration plus the table knobs. Other controllers have no
	// table hook and run unchanged.
	var (
		tables *core.DecisionTables
		policy *core.Policy
	)
	if name == "soda" && tableQuantum > 0 {
		tables = core.NewDecisionTables()
		cfg := core.DefaultConfig()
		cfg.DecisionTable = tables
		cfg.TableQuantum = tableQuantum
		info, err := tables.CompileTable(cfg, ladder, bufferCap)
		if err != nil {
			return err
		}
		fmt.Printf("soda decision table: %dx%dx%d cells, quantum %.2f, horizon %d\n",
			info.Planes, info.XBins, info.WBins, info.Quantum, info.Horizon)
		if policy, err = core.NewPolicy(cfg, ladder); err != nil {
			return err
		}
	}
	factory := func() (abr.Controller, predictor.Predictor) {
		if policy != nil {
			return policy.New(), predictor.NewEMA(units.Seconds(4))
		}
		c, _ := abr.New(name, ladder)
		return c, predictor.NewEMA(units.Seconds(4))
	}
	metrics, err := sim.RunDataset(traces, factory, sim.Config{
		Ladder:         ladder,
		BufferCap:      bufferCap,
		SessionSeconds: sessionSeconds,
		Telemetry:      col,
	})
	if err != nil {
		return err
	}
	fmt.Println(qoe.Aggregated(name, metrics).String())
	if tables != nil {
		fmt.Printf("  %s\n", tables.Stats())
	}
	return nil
}

// pickLadder looks the -ladder name up in video.NamedLadders; an empty name
// takes the dataset's ladder: YouTube4K for Puffer, Mobile for the cellular
// datasets.
func pickLadder(name, dataset string) (video.Ladder, error) {
	if name == "" {
		if dataset == "puffer" {
			return video.YouTube4K(), nil
		}
		return video.Mobile(), nil
	}
	return video.LadderNamed(name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soda-sim:", err)
	os.Exit(1)
}
