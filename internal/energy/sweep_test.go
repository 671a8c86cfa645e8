package energy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"contory/internal/vclock"
)

// refEnergyBetween is the reference integrator: collect every breakpoint
// inside (t0, t1), sort, and re-sum the whole history with powerAtLocked at
// the start of each segment. O(cuts × windows), kept only as the oracle the
// sweep must match bit for bit.
func refEnergyBetween(tl *Timeline, t0, t1 time.Time) Joules {
	if !t1.After(t0) {
		return 0
	}
	cuts := []time.Time{t0, t1}
	for _, pts := range tl.states {
		for _, p := range pts {
			if p.at.After(t0) && p.at.Before(t1) {
				cuts = append(cuts, p.at)
			}
		}
	}
	for _, w := range tl.windows {
		if w.start.After(t0) && w.start.Before(t1) {
			cuts = append(cuts, w.start)
		}
		if w.end.After(t0) && w.end.Before(t1) {
			cuts = append(cuts, w.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	var joules Joules
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if !b.After(a) {
			continue
		}
		p := tl.powerAtLocked(a)
		joules += Joules(float64(p) / 1000.0 * b.Sub(a).Seconds())
	}
	return joules
}

func refEnergyBetweenClamped(tl *Timeline, t0, t1 time.Time) Joules {
	if t0.Before(tl.compacted) {
		t0 = tl.compacted
	}
	return refEnergyBetween(tl, t0, t1)
}

// sweepDraws are calibrated-looking draws: marginal paper constants, radio
// levels, a zero (state off) and values that round on the nano-mW grid.
var sweepDraws = []Milliwatts{0, BaseIdle, DisplayOn, BacklightOn, BTScan, ContoryOn, 1190, 1.0 / 3, 417.5, 2.5e-7}

// TestEnergySweepMatchesReference drives randomized timelines (same-instant
// state collapse, overlapping windows, future-start AddWindowAt, interleaved
// Compact) and requires EnergyBetween, EnergyBetweenClamped and the energy
// folded by Compact to equal the reference integrator exactly.
func TestEnergySweepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewSimulator()
		tl := NewTimeline(clk)
		// Instants worth probing: every edge the timeline has seen, so spans
		// start and end exactly on breakpoints as well as between them.
		marks := []time.Time{vclock.Epoch, {}}
		probe := func(step int) {
			for k := 0; k < 4; k++ {
				t0 := marks[rng.Intn(len(marks))]
				t1 := marks[rng.Intn(len(marks))]
				if rng.Intn(3) == 0 {
					t1 = t1.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
				}
				tl.mu.Lock()
				want, wantC := refEnergyBetween(tl, t0, t1), refEnergyBetweenClamped(tl, t0, t1)
				tl.mu.Unlock()
				if got := tl.EnergyBetween(t0, t1); got != want {
					t.Fatalf("seed %d step %d: EnergyBetween(%v, %v) = %v, reference %v", seed, step, t0, t1, got, want)
				}
				if got := tl.EnergyBetweenClamped(t0, t1); got != wantC {
					t.Fatalf("seed %d step %d: EnergyBetweenClamped(%v, %v) = %v, reference %v", seed, step, t0, t1, got, wantC)
				}
			}
		}
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				// Zero advances leave the next change on the same instant.
				clk.Advance(time.Duration(rng.Intn(4)) * 250 * time.Millisecond)
				marks = append(marks, clk.Now())
			case op < 5:
				tl.SetState(fmt.Sprintf("s%d", rng.Intn(3)), sweepDraws[rng.Intn(len(sweepDraws))])
			case op < 7:
				d := time.Duration(rng.Intn(5)) * 300 * time.Millisecond
				tl.AddWindow(fmt.Sprintf("w%d", rng.Intn(2)), sweepDraws[rng.Intn(len(sweepDraws))], d)
				marks = append(marks, clk.Now().Add(d))
			case op < 9:
				start := clk.Now().Add(time.Duration(rng.Intn(8)) * 250 * time.Millisecond)
				d := time.Duration(1+rng.Intn(6)) * 200 * time.Millisecond
				tl.AddWindowAt("ahead", sweepDraws[rng.Intn(len(sweepDraws))], start, d)
				marks = append(marks, start, start.Add(d))
			default:
				tl.mu.Lock()
				want := tl.folded + refEnergyBetween(tl, tl.compacted, clk.Now())
				tl.mu.Unlock()
				tl.Compact(clk.Now())
				if got := tl.FoldedEnergy(); got != want {
					t.Fatalf("seed %d step %d: folded energy %v, reference %v", seed, step, got, want)
				}
			}
			probe(step)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestEnergySweepReusesBuffers checks that integrations recycle their sweep
// buffer: once a buffer has grown to a span's edge count, repeating the
// span, or integrating a shorter one, allocates nothing.
func TestEnergySweepReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", BaseIdle)
	for i := 0; i < 500; i++ {
		tl.AddWindow("tx", 1190, 500*time.Millisecond)
		clk.Advance(time.Second)
	}
	now := clk.Now()
	recent := now.Add(-10 * time.Second)
	for name, t0 := range map[string]time.Time{"whole run": vclock.Epoch, "recent span": recent} {
		if allocs := testing.AllocsPerRun(50, func() { tl.EnergyBetween(t0, now) }); allocs != 0 {
			t.Errorf("%s: EnergyBetween allocates %v times per call, want 0", name, allocs)
		}
	}
}

var sweepSink Joules

// BenchmarkEnergyBetweenLongTimeline integrates a whole run over timelines
// of growing length: the sweep costs O(W log W) in the window count W.
func BenchmarkEnergyBetweenLongTimeline(b *testing.B) {
	for _, windows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("windows=%d", windows), func(b *testing.B) {
			clk := vclock.NewSimulator()
			tl := NewTimeline(clk)
			tl.SetState("base", BaseIdle)
			for i := 0; i < windows; i++ {
				if i%50 == 0 {
					tl.SetState("display", sweepDraws[i/50%len(sweepDraws)])
				}
				tl.AddWindow("tx", 1190, 1500*time.Millisecond)
				clk.Advance(time.Second)
			}
			now := clk.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepSink = tl.EnergyBetween(vclock.Epoch, now)
			}
		})
	}
}
