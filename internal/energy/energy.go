// Package energy models the power side of the Contory testbed: per-device
// power timelines, baseline operating-mode power states, a Fluke-189-style
// multimeter sampler, and a lithium-ion battery model.
//
// The paper measures energy by inserting a multimeter in series between the
// phone and its battery and integrating current × voltage over time. This
// package reproduces that methodology over virtual time: components declare
// piecewise-constant power contributions (continuous states such as
// "display" or "wifi-connected", and transient windows such as "bt-inquiry"
// for 13 s), and the timeline integrates them exactly.
package energy

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"contory/internal/metrics"
	"contory/internal/vclock"
)

// Milliwatts expresses power in mW, the unit used throughout the paper.
type Milliwatts float64

// Joules expresses energy.
type Joules float64

// Baseline operating-mode power draws measured in §6.1 of the paper with the
// GSM radio turned off (Nokia 6630). The decomposition is additive: e.g.
// display+backlight on = BaseIdle + DisplayOn + BacklightOn = 76.20 mW.
const (
	// BaseIdle is the phone with GSM off, display off, backlight off, BT off
	// (5.75 mW in the paper).
	BaseIdle Milliwatts = 5.75
	// DisplayOn is the marginal cost of the display (display on, backlight
	// off totals 14.35 mW).
	DisplayOn Milliwatts = 14.35 - 5.75
	// BacklightOn is the marginal cost of the back-light (display+backlight
	// totals 76.20 mW).
	BacklightOn Milliwatts = 76.20 - 14.35
	// BTScan is the marginal cost of Bluetooth in page and inquiry scan
	// state (totals 8.47 mW over BaseIdle).
	BTScan Milliwatts = 8.47 - 5.75
	// ContoryOn is the marginal cost of running the Contory middleware
	// (totals 10.11 mW over BaseIdle+BTScan).
	ContoryOn Milliwatts = 10.11 - 8.47
)

// BatteryVoltage is the nominal battery voltage measured in the paper
// (deviation < 2 % from 4.0965 V under load for the first hour).
const BatteryVoltage = 4.0965

// changePoint is a step in a state's power level.
type changePoint struct {
	at time.Time
	mw Milliwatts
}

// window is a transient power contribution over [start, end).
type window struct {
	start, end time.Time
	mw         Milliwatts
	label      string
}

// Timeline records the full power history of one device. All methods are
// safe for concurrent use. Power is the sum of all named continuous states
// plus all transient windows active at an instant.
type Timeline struct {
	clock vclock.Clock

	mu        sync.Mutex
	states    map[string][]changePoint
	windows   []window
	compacted time.Time
	folded    Joules // energy of history dropped by Compact

	metrics      *metrics.Registry
	joulesGauges map[string]*metrics.Gauge // window label → accumulated gauge
}

// NewTimeline returns an empty Timeline bound to the given clock.
func NewTimeline(clock vclock.Clock) *Timeline {
	return &Timeline{
		clock:  clock,
		states: make(map[string][]changePoint),
	}
}

// SetMetrics attaches a metrics registry: from now on every transient power
// window (BT inquiry, WiFi transfer, UMTS connection, GPS sample, …)
// accumulates its exact energy into an "energy.joules.<label>" gauge, the
// per-operation energy accounting of the paper's Table 2.
func (tl *Timeline) SetMetrics(reg *metrics.Registry) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.metrics = reg
	tl.joulesGauges = make(map[string]*metrics.Gauge)
}

// accountWindowLocked adds a window's exact energy (piecewise-constant
// power × duration) to its label's gauge. Callers hold tl.mu.
func (tl *Timeline) accountWindowLocked(label string, mw Milliwatts, d time.Duration) {
	if tl.metrics == nil {
		return
	}
	g := tl.joulesGauges[label]
	if g == nil {
		g = tl.metrics.Gauge("energy.joules." + label)
		tl.joulesGauges[label] = g
	}
	g.Add(float64(mw) / 1000.0 * d.Seconds())
}

// SetState sets the named continuous power state to mw starting now. Setting
// 0 turns the state off. Re-setting to the current level is a no-op.
func (tl *Timeline) SetState(name string, mw Milliwatts) {
	now := tl.clock.Now()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	pts := tl.states[name]
	if n := len(pts); n > 0 && pts[n-1].mw == mw {
		return
	}
	// Collapse multiple changes at the same instant to the last one.
	if n := len(pts); n > 0 && pts[n-1].at.Equal(now) {
		pts[n-1].mw = mw
		tl.states[name] = pts
		return
	}
	tl.states[name] = append(pts, changePoint{at: now, mw: mw})
}

// State returns the current level of the named state (0 if never set).
func (tl *Timeline) State(name string) Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	pts := tl.states[name]
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].mw
}

// AddWindow contributes mw for d starting now, labelled for traceability.
// Negative or zero durations are ignored.
func (tl *Timeline) AddWindow(label string, mw Milliwatts, d time.Duration) {
	if d <= 0 {
		return
	}
	now := tl.clock.Now()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.windows = append(tl.windows, window{
		start: now,
		end:   now.Add(d),
		mw:    mw,
		label: label,
	})
	tl.accountWindowLocked(label, mw, d)
}

// AddWindowAt is AddWindow with an explicit start time; used by radio models
// that schedule power ahead of time (e.g. a transfer that begins after a
// connection-establishment delay).
func (tl *Timeline) AddWindowAt(label string, mw Milliwatts, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.windows = append(tl.windows, window{
		start: start,
		end:   start.Add(d),
		mw:    mw,
		label: label,
	})
	tl.accountWindowLocked(label, mw, d)
}

// PowerAt returns the total power draw at time t.
func (tl *Timeline) PowerAt(t time.Time) Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.powerAtLocked(t)
}

// Power returns the total power draw now.
func (tl *Timeline) Power() Milliwatts {
	return tl.PowerAt(tl.clock.Now())
}

func (tl *Timeline) powerAtLocked(t time.Time) Milliwatts {
	// Accumulate in fixed-point nano-milliwatts so the total is exactly
	// order-independent: states live in a map and windows append in event
	// execution order, neither of which is stable across runs, and float
	// addition order would otherwise leak ULP differences into summaries.
	var total int64
	for _, pts := range tl.states {
		total += fixedMW(stateAt(pts, t))
	}
	for _, w := range tl.windows {
		if !t.Before(w.start) && t.Before(w.end) {
			total += fixedMW(w.mw)
		}
	}
	return Milliwatts(float64(total) / mwFixedScale)
}

// mwFixedScale is the fixed-point resolution of power summation: 1 nW.
// Every calibrated draw in the model has far fewer fractional digits, so
// rounding to this grid is exact for all inputs the testbed produces.
const mwFixedScale = 1e6

func fixedMW(mw Milliwatts) int64 {
	v := float64(mw) * mwFixedScale
	if v >= 0 {
		return int64(v + 0.5)
	}
	return -int64(-v + 0.5)
}

// stateAt evaluates a step function at t (0 before the first change).
func stateAt(pts []changePoint, t time.Time) Milliwatts {
	// Binary search for the last change at or before t.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(t) })
	if i == 0 {
		return 0
	}
	return pts[i-1].mw
}

// EnergyBetween integrates power over [t0, t1] and returns Joules. The
// integral is exact because the timeline is piecewise constant. After
// Compact, only spans at or after the compaction cutoff are meaningful.
func (tl *Timeline) EnergyBetween(t0, t1 time.Time) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.energyBetweenLocked(t0, t1)
}

// energyBetweenLocked integrates in one sweep. One pass over the history
// takes the fixed-point power at t0 and collects every state change and
// window edge inside (t0, t1) as a signed fixed-point delta; the deltas are
// sorted by time and applied segment by segment. Integer addition is exact,
// so each segment's power equals powerAtLocked at the segment start bit for
// bit, and the float accumulation visits the same segments in the same
// order as re-summing the whole history at every breakpoint would. The cost
// is O(W + k log k) for W stored windows and k edges inside the span.
func (tl *Timeline) energyBetweenLocked(t0, t1 time.Time) Joules {
	if !t1.After(t0) {
		return 0
	}
	// Edges are keyed by their offset from the first one collected: all
	// lie inside the recorded history, so the offsets never saturate the
	// way offsets from an arbitrary t0 (say, the zero time) could.
	var base time.Time
	buf := sweepBufs.Get().(*[]powerDelta)
	deltas := (*buf)[:0]
	defer func() {
		*buf = deltas[:0]
		sweepBufs.Put(buf)
	}()
	edge := func(at time.Time, d int64) {
		if len(deltas) == 0 {
			base = at
		}
		deltas = append(deltas, powerDelta{off: at.Sub(base), d: d})
	}
	var total int64 // power at t0
	for _, pts := range tl.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(t0) })
		var prev int64
		if i > 0 {
			prev = fixedMW(pts[i-1].mw)
			total += prev
		}
		for ; i < len(pts) && pts[i].at.Before(t1); i++ {
			cur := fixedMW(pts[i].mw)
			edge(pts[i].at, cur-prev)
			prev = cur
		}
	}
	for _, w := range tl.windows {
		mw := fixedMW(w.mw)
		if w.start.After(t0) {
			if w.start.Before(t1) {
				edge(w.start, mw)
			}
		} else if w.end.After(t0) {
			total += mw
		}
		if w.end.After(t0) && w.end.Before(t1) {
			edge(w.end, -mw)
		}
	}
	if len(deltas) == 0 {
		return segmentJoules(total, t1.Sub(t0))
	}
	slices.SortFunc(deltas, func(a, b powerDelta) int { return cmp.Compare(a.off, b.off) })

	at := deltas[0].off
	joules := segmentJoules(total, base.Add(at).Sub(t0))
	for _, d := range deltas {
		if d.off > at {
			joules += segmentJoules(total, d.off-at)
			at = d.off
		}
		total += d.d
	}
	return joules + segmentJoules(total, t1.Sub(base.Add(at)))
}

// powerDelta is a step of d nano-milliwatts in total power, off after the
// first edge of an integration span.
type powerDelta struct {
	off time.Duration
	d   int64
}

// sweepBufs recycles sweep buffers across timelines. A goroutine runs one
// integration at a time, so a few buffers serve a whole fleet's phones:
// calls allocate nothing once a buffer has grown to the longest span, and
// no timeline pins a buffer between calls.
var sweepBufs = sync.Pool{New: func() any { return new([]powerDelta) }}

// segmentJoules is the energy of fixed-point power total held for d.
func segmentJoules(total int64, d time.Duration) Joules {
	p := Milliwatts(float64(total) / mwFixedScale)
	return Joules(float64(p) / 1000.0 * d.Seconds())
}

// EnergyBetweenClamped is EnergyBetween with the start clamped to the
// compaction cutoff: integrating a span that began before a Compact would
// silently read a truncated history as zero power. Used by the tracing
// layer, whose span intervals may predate a long run's compaction.
func (tl *Timeline) EnergyBetweenClamped(t0, t1 time.Time) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if t0.Before(tl.compacted) {
		t0 = tl.compacted
	}
	return tl.energyBetweenLocked(t0, t1)
}

// WindowEnergy returns the total energy contributed by windows whose label
// matches the given label, regardless of when they occurred.
func (tl *Timeline) WindowEnergy(label string) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var joules Joules
	for _, w := range tl.windows {
		if w.label != label {
			continue
		}
		joules += Joules(float64(w.mw) / 1000.0 * w.end.Sub(w.start).Seconds())
	}
	return joules
}

// Compact folds all history strictly before the cutoff into a single
// accumulated energy figure, bounding the timeline's memory on long runs
// (a day of 1 Hz GPS sampling would otherwise accumulate ~86k windows).
// After compaction, PowerAt and EnergyBetween are only valid at or after
// the cutoff; FoldedEnergy returns the energy of the dropped history.
// Windows still active at the cutoff are trimmed, not dropped.
func (tl *Timeline) Compact(cutoff time.Time) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if !cutoff.After(tl.compacted) {
		return
	}
	// Integrate the dropped span exactly before mutating anything.
	tl.folded += tl.energyBetweenLocked(tl.compacted, cutoff)

	// States: keep only the value in force at the cutoff plus later
	// changes.
	for name, pts := range tl.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(cutoff) })
		if i == 0 {
			continue // no history before the cutoff
		}
		cur := pts[i-1].mw
		rest := pts[i:]
		out := make([]changePoint, 0, len(rest)+1)
		out = append(out, changePoint{at: cutoff, mw: cur})
		out = append(out, rest...)
		tl.states[name] = out
	}
	// Windows: drop those fully before the cutoff; trim those straddling
	// it (their pre-cutoff share is already folded).
	kept := tl.windows[:0]
	for _, w := range tl.windows {
		if !w.end.After(cutoff) {
			continue
		}
		if w.start.Before(cutoff) {
			w.start = cutoff
		}
		kept = append(kept, w)
	}
	tl.windows = kept
	tl.compacted = cutoff
}

// CompactedAt returns the current compaction cutoff (zero if never
// compacted).
func (tl *Timeline) CompactedAt() time.Time {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.compacted
}

// FoldedEnergy returns the total energy of history dropped by Compact.
func (tl *Timeline) FoldedEnergy() Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.folded
}

// WindowCount returns the number of retained transient windows.
func (tl *Timeline) WindowCount() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.windows)
}

// Sample is one multimeter reading.
type Sample struct {
	At    time.Time
	Since time.Duration // elapsed since the meter was attached
	Power Milliwatts
}

// Meter mimics the Fluke 189 multimeter of the paper's testbed: it samples
// the device's power draw at a fixed interval (the paper reads current
// approximately every 500 ms) and records a trace.
type Meter struct {
	clock    vclock.Clock
	timeline *Timeline
	interval time.Duration
	started  time.Time

	mu       sync.Mutex
	samples  []Sample
	timer    *vclock.Timer
	observer func(Sample)
}

// DefaultMeterInterval matches the paper's ~500 ms sampling period.
const DefaultMeterInterval = 500 * time.Millisecond

// NewMeter attaches a meter to the timeline. Call Start to begin sampling.
func NewMeter(clock vclock.Clock, tl *Timeline, interval time.Duration) (*Meter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("energy: meter interval must be positive, got %v", interval)
	}
	return &Meter{clock: clock, timeline: tl, interval: interval}, nil
}

// Start begins periodic sampling. It records an immediate first sample.
func (m *Meter) Start() {
	m.mu.Lock()
	if m.timer != nil {
		m.mu.Unlock()
		return
	}
	m.started = m.clock.Now()
	m.mu.Unlock()

	m.record()
	t := m.clock.Every(m.interval, m.record)
	m.mu.Lock()
	m.timer = t
	m.mu.Unlock()
}

// Stop halts sampling. Safe to call multiple times.
func (m *Meter) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

// OnSample installs a callback invoked on every reading — e.g. feeding a
// Battery's in-rush protection, which is how the paper's communicators
// switched off when WiFi connected through the metering rig.
func (m *Meter) OnSample(f func(Sample)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observer = f
}

func (m *Meter) record() {
	now := m.clock.Now()
	p := m.timeline.PowerAt(now)
	s := Sample{
		At:    now,
		Since: now.Sub(m.started),
		Power: p,
	}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	obs := m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(s)
	}
}

// Samples returns a copy of the recorded trace.
func (m *Meter) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// MaxPower returns the largest sampled power (0 if no samples).
func (m *Meter) MaxPower() Milliwatts {
	m.mu.Lock()
	defer m.mu.Unlock()
	var maxP Milliwatts
	for _, s := range m.samples {
		if s.Power > maxP {
			maxP = s.Power
		}
	}
	return maxP
}

// MeanPower returns the average sampled power (0 if no samples).
func (m *Meter) MeanPower() Milliwatts {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return 0
	}
	var sum Milliwatts
	for _, s := range m.samples {
		sum += s.Power
	}
	return sum / Milliwatts(len(m.samples))
}
