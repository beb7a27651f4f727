// Package abr defines the controller abstraction shared by the simulator,
// the TCP prototype player and the production A/B harness: every ABR
// algorithm in this repository (SODA and all baselines) implements
// abr.Controller and receives an abr.Context per decision.
//
// The context deliberately exposes exactly the information a real player has
// at decision time: the buffer level, the previously selected rung, the
// ladder, and access to a throughput predictor. Controllers never see the
// future trace.
package abr

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/units"
	"repro/internal/video"
)

// NoRung marks "no previous bitrate" (before the first segment) and, in a
// Decision, "do not download now".
const NoRung = -1

// Decision is a controller's answer for the next download.
type Decision struct {
	// Rung is the ladder index to download next, or NoRung to wait.
	Rung int
	// WaitSeconds suggests how long to idle when Rung is NoRung. The player
	// may clamp it. Ignored when Rung >= 0.
	WaitSeconds units.Seconds
}

// Wait returns a no-download decision with the suggested idle time.
func Wait(d units.Seconds) Decision { return Decision{Rung: NoRung, WaitSeconds: d} }

// Context carries the player state visible to a controller at decision time.
// Every dimensioned quantity is expressed in the internal/units types, so the
// whole decision path — harness, context, controller, predictor — is
// statically unit-checked end to end.
type Context struct {
	// Now is the current stream clock.
	Now units.Seconds
	// Buffer is the current buffer level in seconds of video.
	Buffer units.Seconds
	// BufferCap is the maximum buffer the player may hold (e.g. 20 s for the
	// paper's live configuration).
	BufferCap units.Seconds
	// PrevRung is the rung of the previously downloaded segment, or NoRung
	// before the first download.
	PrevRung int
	// Ladder is the available bitrate ladder.
	Ladder video.Ladder
	// Predict returns the predicted mean throughput over the next horizon.
	// It is never nil during simulation.
	Predict func(horizon units.Seconds) units.Mbps
	// PredictQuantile returns a throughput quantile forecast, or nil when the
	// configured predictor has no distributional support.
	PredictQuantile func(q float64, horizon units.Seconds) units.Mbps
	// LastThroughput is the measured mean throughput of the previous
	// segment download, or 0 before the first download. RobustMPC uses it to
	// track its own prediction errors.
	LastThroughput units.Mbps
	// SegmentIndex is the index of the segment about to be selected.
	SegmentIndex int
	// TotalSegments is the session length in segments (0 when unknown/live).
	TotalSegments int
}

// PredictSafe returns the point prediction, treating a nil Predict or
// non-positive forecast as "unknown" and falling back to the lowest rung's
// bitrate so controllers degrade conservatively during startup.
func (c *Context) PredictSafe(horizon units.Seconds) units.Mbps {
	if c.Predict == nil {
		return c.Ladder.Min()
	}
	p := c.Predict(horizon)
	if p <= 0 {
		return c.Ladder.Min()
	}
	return p
}

// Validate reports obviously inconsistent contexts; used by tests and the
// harnesses' debug paths.
func (c *Context) Validate() error {
	if c.Buffer < 0 {
		return fmt.Errorf("abr: negative buffer %v", c.Buffer)
	}
	if c.BufferCap <= 0 {
		return fmt.Errorf("abr: non-positive buffer cap %v", c.BufferCap)
	}
	if c.Ladder.Len() == 0 {
		return fmt.Errorf("abr: empty ladder")
	}
	if c.PrevRung != NoRung && (c.PrevRung < 0 || c.PrevRung >= c.Ladder.Len()) {
		return fmt.Errorf("abr: previous rung %d out of range", c.PrevRung)
	}
	return nil
}

// Controller selects a bitrate for each segment.
type Controller interface {
	// Name identifies the controller in reports ("soda", "bola", ...).
	Name() string
	// Decide picks the rung for the next segment (or Wait).
	Decide(ctx *Context) Decision
	// Reset clears per-session state; called between sessions.
	Reset()
}

// Factory constructs a fresh controller for a session. The ladder is fixed
// per session; controllers must not retain the config slice.
type Factory func(ladder video.Ladder) Controller

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register installs a controller factory under a unique name. It panics on
// duplicates — registration happens in package init, so a duplicate is a
// programming error.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("abr: duplicate controller registration %q", name))
	}
	registry[name] = f
}

// New constructs a registered controller by name.
func New(name string, ladder video.Ladder) (Controller, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(ladder), nil
}

// Lookup returns the factory registered under name, for harnesses that
// build many sessions of one controller.
func Lookup(name string) (Factory, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("abr: unknown controller %q (registered: %v)", name, Names())
	}
	return f, nil
}

// Names returns the sorted registered controller names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
