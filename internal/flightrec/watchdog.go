package flightrec

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// IncidentKind names one QoE-consistency detector.
type IncidentKind uint8

const (
	// KindOscillation fires when a session switches rungs on too many of
	// the last OscillationWindow decisions — the inconsistency SODA's
	// time-based objective exists to suppress.
	KindOscillation IncidentKind = iota
	// KindStall fires at stall onset: the buffer hit empty on a decision
	// after playback had started.
	KindStall
	// KindUnderrunRisk fires when the buffer drops below the configured
	// horizon while still positive — the early-warning band.
	KindUnderrunRisk

	// NumIncidentKinds sizes per-kind arrays.
	NumIncidentKinds = int(KindUnderrunRisk) + 1
)

var incidentKindNames = [NumIncidentKinds]string{
	"oscillation", "stall", "underrun_risk",
}

// String returns the kind's exposition label.
func (k IncidentKind) String() string {
	if int(k) < NumIncidentKinds {
		return incidentKindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind as its exposition label, the "kind" field of
// /debug/incidents.
func (k IncidentKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses an exposition label back into the kind.
func (k *IncidentKind) UnmarshalText(text []byte) error {
	for i, name := range incidentKindNames {
		if string(text) == name {
			*k = IncidentKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown incident kind %q", text)
}

// Incident is one watchdog detection, the unit of /debug/incidents. The
// field order is the JSONL wire order.
type Incident struct {
	// Seq is the incident's position in the watchdog's log, counting from 0.
	// The log does not store it: Incidents derives it from the ring's
	// sequence numbers when reading.
	Seq     uint64        `json:"seq"`
	Session int32         `json:"session"`
	Kind    IncidentKind  `json:"kind"`
	At      units.Seconds `json:"at_s"`
	Buffer  units.Seconds `json:"buffer_s"`
	Rung    int16         `json:"rung"`
}

// DefaultIncidentCapacity bounds the incident log. Incidents are rare by
// construction (one per excursion, not per decision), so the log's lock is
// never contended on the hot path.
const DefaultIncidentCapacity = 1024

// Incidents copies the held incidents of log, oldest first, with Seq filled
// in from the ring's sequence numbers. A nil log holds none.
func Incidents(log *telemetry.Ring[Incident]) []Incident {
	if log == nil {
		return nil
	}
	first, recs := log.SnapshotSeq()
	for i := range recs {
		recs[i].Seq = first + uint64(i)
	}
	return recs
}

// WatchdogConfig tunes the detectors; the zero value selects the defaults.
type WatchdogConfig struct {
	// OscillationWindow is the sliding window of recent decisions a switch
	// count is taken over (2..64 decisions; default 16).
	OscillationWindow int
	// OscillationSwitches is the switch count within the window that flags
	// an oscillation incident (default half the window).
	OscillationSwitches int
	// UnderrunHorizon is the buffer level below which a session is at
	// underrun risk (default 4s — one segment of headroom).
	UnderrunHorizon units.Seconds
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.OscillationWindow <= 0 {
		c.OscillationWindow = 16
	}
	if c.OscillationWindow < 2 {
		c.OscillationWindow = 2
	}
	if c.OscillationWindow > 64 {
		c.OscillationWindow = 64
	}
	if c.OscillationSwitches <= 0 {
		c.OscillationSwitches = c.OscillationWindow / 2
	}
	if c.UnderrunHorizon <= 0 {
		c.UnderrunHorizon = 4
	}
	return c
}

// SessionWatch is one session's detector state: a switch-history bitmask and
// per-detector hysteresis flags. It is plain pointer-free data, zero for a
// new session, so callers embed it next to the session's other state:
// soda-server's session-table entry and the fleet's arena slab each carry
// one per session.
type SessionWatch struct {
	// switches has bit i set if the i-th most recent decision switched rungs.
	switches uint64
	// decisions counts observed decisions (saturating at the window makes
	// no difference; it only gates the warmup).
	decisions uint32
	// started latches once the buffer has been positive — sessions begin at
	// buffer 0, and flagging the fill phase as an underrun would make every
	// session open with two false incidents.
	started bool
	// inOscillation/inStall/inUnderrun are the hysteresis latches: one
	// incident per excursion, re-armed when the condition clears.
	inOscillation bool
	inStall       bool
	inUnderrun    bool
}

// Watchdog is the online QoE-consistency monitor: allocation-free streaming
// detectors over the decision stream, counting incidents per kind and
// appending to a bounded incident log. One Watchdog serves any number of
// sessions; per-session state lives in caller-owned SessionWatch values.
// A nil Watchdog is a valid no-op.
type Watchdog struct {
	cfg        WatchdogConfig
	windowMask uint64
	counts     [NumIncidentKinds]atomic.Uint64
	counters   [NumIncidentKinds]*telemetry.Counter
	log        *telemetry.Ring[Incident]
}

// NewWatchdog builds a watchdog, registering the per-kind
// soda_qoe_incidents_total counters on reg (nil = private registry).
func NewWatchdog(reg *telemetry.Registry, cfg WatchdogConfig) *Watchdog {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	w := &Watchdog{
		cfg:        cfg,
		windowMask: (uint64(1) << cfg.OscillationWindow) - 1,
		log:        telemetry.NewRing[Incident](DefaultIncidentCapacity),
	}
	for k := 0; k < NumIncidentKinds; k++ {
		w.counters[k] = reg.Counter(
			"soda_qoe_incidents_total",
			"QoE-consistency watchdog incidents, by kind",
			telemetry.None,
			telemetry.Label{Key: "kind", Value: IncidentKind(k).String()},
		)
	}
	return w
}

// Config returns the effective (defaulted) configuration.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// Log returns the incident log (nil for a nil watchdog); read it through
// Incidents to get sequence numbers.
func (w *Watchdog) Log() *telemetry.Ring[Incident] {
	if w == nil {
		return nil
	}
	return w.log
}

// Observe feeds one decision to the detectors: the session's watch state,
// its clock, the buffer level when Decide was called, the chosen and
// previous rungs (rung < 0 = wait), and whether the decision was a wait.
// Nil-safe no-op; allocation-free.
//
//soda:noalloc
func (w *Watchdog) Observe(watch *SessionWatch, session int32, at, buffer units.Seconds, rung, prevRung int16) {
	if w == nil || watch == nil {
		return
	}
	// Oscillation: shift the switch history, count the window.
	switched := rung >= 0 && prevRung >= 0 && rung != prevRung
	watch.switches = (watch.switches << 1) & w.windowMask
	if switched {
		watch.switches |= 1
	}
	if watch.decisions < uint32(w.cfg.OscillationWindow) {
		watch.decisions++
	}
	nSwitch := bits.OnesCount64(watch.switches)
	if watch.decisions >= uint32(w.cfg.OscillationWindow) && nSwitch >= w.cfg.OscillationSwitches {
		if !watch.inOscillation {
			watch.inOscillation = true
			w.incident(KindOscillation, session, at, buffer, rung)
		}
	} else if nSwitch <= w.cfg.OscillationSwitches/2 {
		watch.inOscillation = false
	}

	if buffer > 0 {
		watch.started = true
	}
	if !watch.started {
		return
	}
	// Stall onset: the buffer hit empty after playback had started.
	if buffer <= 0 {
		if !watch.inStall {
			watch.inStall = true
			w.incident(KindStall, session, at, buffer, rung)
		}
	} else {
		watch.inStall = false
	}
	// Underrun risk: below the horizon but not (yet) stalled.
	if buffer > 0 && buffer < w.cfg.UnderrunHorizon {
		if !watch.inUnderrun {
			watch.inUnderrun = true
			w.incident(KindUnderrunRisk, session, at, buffer, rung)
		}
	} else if buffer >= w.cfg.UnderrunHorizon {
		watch.inUnderrun = false
	}
}

//soda:noalloc
func (w *Watchdog) incident(kind IncidentKind, session int32, at, buffer units.Seconds, rung int16) {
	w.counts[kind].Add(1)
	w.counters[kind].Inc()
	w.log.Append(Incident{
		Session: session, Kind: kind, At: at, Buffer: buffer, Rung: rung,
	})
}

// Count returns the total incidents of one kind.
func (w *Watchdog) Count(kind IncidentKind) uint64 {
	if w == nil || int(kind) >= NumIncidentKinds {
		return 0
	}
	return w.counts[kind].Load()
}

// Total returns the total incidents across kinds.
func (w *Watchdog) Total() uint64 {
	if w == nil {
		return 0
	}
	var n uint64
	for k := 0; k < NumIncidentKinds; k++ {
		n += w.counts[k].Load()
	}
	return n
}

// PerThousandSessions scales a raw incident count to the fleet-report and
// gate-schema denomination.
func PerThousandSessions(incidents uint64, sessions int) float64 {
	if sessions <= 0 {
		return 0
	}
	return float64(incidents) * 1000 / float64(sessions)
}
