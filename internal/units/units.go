// Package units defines the dimensioned scalar types shared by the SODA
// core, simulator and trace layers, so that bitrates, data sizes and
// durations cannot be mixed silently.
//
// The classic ABR bug class is a unit mix-up: the paper's objective combines
// bitrates in Mb/s, buffer levels in seconds and segment sizes in megabits,
// and a bits-vs-bytes or seconds-vs-milliseconds slip corrupts every
// downstream decision while remaining perfectly type-correct float64
// arithmetic. Each quantity here is a defined type over float64, so
//
//   - arithmetic between *different* unit types does not compile,
//   - conversions between units of the same dimension go through the named
//     methods below (Seconds.Milliseconds, Mbps.Kbps, Megabits.Bits, ...),
//     which apply the scale factor exactly once, and
//   - dimension-changing operations (rate x time = size, size / rate = time)
//     are spelled as methods whose names state the result.
//
// The static twin of this package is the `unitsafe` analyzer
// (internal/lint/unitsafe), which additionally flags the two remaining
// loopholes the type system leaves open: direct conversions between two unit
// types (e.g. Seconds(ms) — compiles because the underlying type matches,
// silently off by 1000x) and raw untyped literals passed where a unit type
// is expected.
//
// Converting to and from plain float64 is allowed for dimensionless
// arithmetic (cost functions, utilities, statistics) and at serialization
// boundaries. The decision path (abr.Context, the predictors, qoe, the
// player and production harnesses) is fully typed; only packages tagged as
// wire boundaries (proto, httpseg, trace, telemetry, flightrec — see the
// `nofloat64wire` analyzer) may launder unit values into foreign float64
// APIs. Keep the dimensioned form as long as the value has a unit.
//
// All types use float64 underneath and incur zero runtime cost: the
// conversions and helper methods compile to the identical floating-point
// operations the untyped code performed, in the same order, so migrating an
// expression to units never changes its bits.
package units

// Seconds is a duration or buffer level in seconds of (video) time.
type Seconds float64

// Minutes is a duration in minutes; used by the engagement model and the
// production A/B study, where viewing durations and live-event lengths are
// natively quoted in minutes.
type Minutes float64

// Milliseconds is a duration in milliseconds; used at network-emulation and
// HTTP boundaries where latencies are natively quoted in ms.
type Milliseconds float64

// Mbps is a data rate in megabits per second — the native unit of bitrate
// ladders and throughput traces in this repository.
type Mbps float64

// Kbps is a data rate in kilobits per second; used at boundaries (logs,
// manifests) where bitrates are natively quoted in Kbps.
type Kbps float64

// Megabits is a data size in megabits — the native unit of segment sizes.
type Megabits float64

// Bits is a data size in bits; used at wire/manifest boundaries.
type Bits float64

// Milliseconds converts seconds to milliseconds.
func (s Seconds) Milliseconds() Milliseconds { return Milliseconds(s * 1e3) }

// Seconds converts milliseconds to seconds.
func (ms Milliseconds) Seconds() Seconds { return Seconds(ms / 1e3) }

// Minutes converts seconds to minutes.
func (s Seconds) Minutes() Minutes { return Minutes(s / 60) }

// Seconds converts minutes to seconds.
func (m Minutes) Seconds() Seconds { return Seconds(m * 60) }

// Kbps converts a rate in Mb/s to Kb/s.
func (r Mbps) Kbps() Kbps { return Kbps(r * 1e3) }

// Mbps converts a rate in Kb/s to Mb/s.
func (r Kbps) Mbps() Mbps { return Mbps(r / 1e3) }

// Bits converts megabits to bits.
func (b Megabits) Bits() Bits { return Bits(b * 1e6) }

// Megabits converts bits to megabits.
func (b Bits) Megabits() Megabits { return Megabits(b / 1e6) }

// Scale returns the duration scaled by a dimensionless factor.
func (s Seconds) Scale(f float64) Seconds { return Seconds(float64(s) * f) }

// Scale returns the rate scaled by a dimensionless factor (safety margins,
// discounts, noise): f·r has the same dimension as r.
func (r Mbps) Scale(f float64) Mbps { return Mbps(float64(r) * f) }

// Scale returns the size scaled by a dimensionless factor.
func (b Megabits) Scale(f float64) Megabits { return Megabits(float64(b) * f) }

// MegabitsIn returns the data volume carried at rate r over duration d:
// rate x time = size.
func (r Mbps) MegabitsIn(d Seconds) Megabits { return Megabits(float64(r) * float64(d)) }

// AtRate returns the time needed to transfer b at rate r: size / rate = time.
// Callers must ensure r > 0.
func (b Megabits) AtRate(r Mbps) Seconds { return Seconds(float64(b) / float64(r)) }

// Over returns the mean rate that transfers b in duration d:
// size / time = rate. Callers must ensure d > 0.
func (b Megabits) Over(d Seconds) Mbps { return Mbps(float64(b) / float64(d)) }
