// Command soda-tracegen generates the synthetic network datasets to disk as
// CSV traces (duration_s,mbps), one file per session.
//
// Usage:
//
//	soda-tracegen -dataset 5g -sessions 100 -out traces/5g/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tracegen"
	"repro/internal/units"
)

func main() {
	dataset := flag.String("dataset", "4g", "dataset profile: puffer, 5g or 4g")
	sessions := flag.Int("sessions", 20, "number of sessions")
	sessionSeconds := flag.Float64("session-seconds", 600, "session length")
	out := flag.String("out", "traces", "output directory")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()

	profile, err := tracegen.ProfileNamed(*dataset)
	if err != nil {
		fatal(err)
	}

	ds, err := tracegen.Generate(profile, *sessions, units.Seconds(*sessionSeconds), *seed)
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(*out, *dataset)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for i, tr := range ds.Sessions {
		path := filepath.Join(dir, fmt.Sprintf("session-%04d.csv", i))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteCSV(f); err != nil {
			_ = f.Close() // best effort; the write error is the one to report
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d sessions to %s (mean %.1f Mb/s, RSD %.1f%%)\n",
		len(ds.Sessions), dir, ds.MeanMbps(), 100*ds.RSD())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soda-tracegen:", err)
	os.Exit(1)
}
