package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"contory/internal/fleet"
	"contory/internal/metrics"
)

var testBounds = []float64{1, 2, 5, 10, 20, 50, 100}

// histogramsOf observes each part of a sample in its own histogram, the way
// each provisioning mechanism keeps its own first-item histogram.
func histogramsOf(parts ...[]float64) []metrics.HistogramPoint {
	reg := metrics.NewRegistry()
	for i, part := range parts {
		h := reg.Histogram(firstItemPrefix+string(rune('a'+i)), testBounds)
		for _, v := range part {
			h.Observe(v)
		}
	}
	return reg.Snapshot().Histograms
}

// bruteQuantile is the nearest-rank q-quantile of a sample.
func bruteQuantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func repeat(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// upperEdge is the upper bound of the bucket holding v (+Inf past the last).
func upperEdge(v float64) float64 {
	for _, b := range testBounds {
		if v <= b {
			return b
		}
	}
	return math.Inf(1)
}

func TestMergedQuantileExactAtBucketBounds(t *testing.T) {
	// Every sample sits on a bucket bound, so wherever a rank ends a
	// bucket the estimate must equal the brute-force order statistic.
	a := repeat(1, 10)
	b := append(repeat(5, 30), repeat(100, 10)...)
	c := repeat(20, 50)
	all := slices.Concat(a, b, c)
	merged, ok := mergeHistograms(histogramsOf(a, b, c))
	if !ok {
		t.Fatal("same-layout histograms did not merge")
	}
	if merged.Count != int64(len(all)) || merged.Min != 1 || merged.Max != 100 {
		t.Fatalf("merged count/min/max = %d/%v/%v", merged.Count, merged.Min, merged.Max)
	}
	for _, q := range []float64{0.1, 0.4, 0.9, 1} {
		if got, want := merged.Quantile(q), bruteQuantile(all, q); got != want {
			t.Errorf("q=%v: merged %v, brute force %v", q, got, want)
		}
	}
}

func TestMergedQuantileMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var parts [3][]float64
	var all []float64
	for i := 0; i < 400; i++ {
		v := math.Exp(rng.Float64() * 5) // 1 .. ~148, spread over every bucket
		parts[i%3] = append(parts[i%3], v)
		all = append(all, v)
	}
	merged, ok := mergeHistograms(histogramsOf(parts[0], parts[1], parts[2]))
	if !ok {
		t.Fatal("same-layout histograms did not merge")
	}
	union := histogramsOf(all)[0]
	for i := range union.Buckets {
		if merged.Buckets[i] != union.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v, union %+v", i, merged.Buckets[i], union.Buckets[i])
		}
	}
	sorted := slices.Clone(all)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := bruteQuantile(all, q)
		// The estimate interpolates inside the bucket holding the true
		// value, from the edge of the nearest occupied bucket below it.
		hi := min(upperEdge(truth), merged.Max)
		lo := merged.Min
		for _, v := range sorted {
			if upperEdge(v) < upperEdge(truth) {
				lo = upperEdge(v)
			}
		}
		if got := merged.Quantile(q); got < lo || got > hi || truth < lo || truth > hi {
			t.Errorf("q=%v: estimate %v, truth %v, want both in [%v, %v]", q, got, truth, lo, hi)
		}
	}
}

func TestMergeRefusesDifferentLayouts(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Histogram("x", []float64{1, 2}).Observe(1)
	reg.Histogram("y", []float64{1, 3}).Observe(1)
	if _, ok := mergeHistograms(reg.Snapshot().Histograms); ok {
		t.Fatal("histograms with different bounds merged")
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_faststr", "contory/internal/simnet.(*Network).Neighbors", "contory/internal/sm.route"}, "simnet"},
		{[]string{"contory/internal/energy.(*Timeline).powerAtLocked", "contory/internal/fleet.(*Engine).summarize"}, "energy"},
		{[]string{"runtime.mallocgc", "contory/internal/radio.NewSampler.func1"}, "radio"},
		{[]string{"contory/internal/vclock.(*Clock).run[...]"}, "vclock"},
		{[]string{"contory.(*World).AddPhone"}, "contory"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcLayer},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, otherLayer},
		{nil, otherLayer},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestCPUByLayerDecodesProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"contory/internal/sm.route", "runtime.mallocgc", "contory/internal/core.submit", "runtime.gcBgMarkWorker"} {
		prof.bytes(6, []byte(s))
	}
	for id, name := range []uint64{5, 6, 7, 8} {
		prof.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	// Location 1 is mallocgc inlined into sm.route; 2 is core; 3 is GC.
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).b }
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(2)).bytes(4, line(1)).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(3)).b)
	prof.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(4)).b)
	// Packed and unpacked repeated fields both occur in the wild.
	prof.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30e6)).b)
	prof.bytes(2, (&pb{}).varint(1, 2).bytes(2, packed(1, 10e6)).b)
	prof.bytes(2, (&pb{}).bytes(1, packed(3)).bytes(2, packed(2, 20e6)).b)
	prof.varint(12, 10e6) // period: skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	got, err := cpuByLayer(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sm": 30e6, "core": 10e6, gcLayer: 20e6}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("%s = %d ns, want %d", l, got[l], v)
		}
	}
	if _, err := cpuByLayer(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestScaleHeapSample(t *testing.T) {
	// One sampled 512 KiB object at a 512 KiB rate stands for 1/(1-1/e).
	want := float64(512<<10) / (1 - math.Exp(-1))
	if got := scaleHeapSample(1, 512<<10, 512<<10); math.Abs(got-want) > 1e-6 {
		t.Errorf("scaled to %v, want %v", got, want)
	}
}

func TestOutcomeCountsAttemptedAndFailed(t *testing.T) {
	reg := metrics.NewRegistry()
	for name, v := range map[string]int64{
		"core.query.submitted": 100,
		// A QoS rejection increments both counters; it is one failure.
		"core.query.rejected": 7,
		"qos.rejected":        3,
		"qos.shed":            2,
	} {
		reg.Counter(name).Add(v)
	}
	for i, mech := range []string{"intSensor", "extInfra", "cache"} {
		h := reg.Histogram(firstItemPrefix+mech, metrics.DefaultLatencyBucketsMs)
		for k := 0; k <= i; k++ {
			h.Observe(float64(100 * (k + 1)))
		}
	}
	o, ok := outcomeOf(fleet.Summary{Snapshot: reg.Snapshot(), ItemsDelivered: 12})
	if !ok {
		t.Fatal("outcome refused same-layout histograms")
	}
	if o.attempted != 100 || o.failed != 9 || o.answered != 6 || o.items != 12 {
		t.Fatalf("outcome = %+v, want attempted 100, failed 9, answered 6, items 12", o)
	}
}

// TestOutcomeCountsRefusedQueries runs a small fleet on the engine's default
// mix, whose infra-one-shot phones meet the UMTS fault the benchmark's
// workloads avoid, and checks that every refusal is counted as failed.
func TestOutcomeCountsRefusedQueries(t *testing.T) {
	e, err := fleet.New(fleet.Spec{Phones: 60, Seed: 3, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := outcomeOf(s)
	if !ok {
		t.Fatal("first-item histograms do not share one bucket layout")
	}
	if o.attempted != s.QueriesSubmitted || o.failed != s.Rejected {
		t.Fatalf("attempted %d failed %d, summary submitted %d rejected %d",
			o.attempted, o.failed, s.QueriesSubmitted, s.Rejected)
	}
	if o.failed == 0 {
		t.Fatal("default mix refused nothing; the UMTS fault no longer shows here")
	}
	err = checkRun(e, s, o, e.World().Now().Add(-3*time.Minute), e.World().Now())
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("checks on a run with refused queries: %v", err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and the names,
// units and directions declared in BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}

	r := round{
		setup: time.Second, run: time.Second, events: 10, runAlloc: 100, mallocs: 5,
		outcome: outcome{answered: 1, items: 2, p50: 1, p99: 2, joules: 3},
		work:    workCounts(fleet.Summary{}),
	}
	traced := r
	traced.profile = &layerProfile{cpu: map[string]float64{}, alloc: map[string]float64{}}
	for _, tc := range []struct {
		decls []decl
		add   func(map[string]metric)
	}{
		{bench.EndToEnd, func(m map[string]metric) { addEndToEnd(m, []round{r}, 1) }},
		{bench.PerLayer, func(m map[string]metric) { addLayerMetrics(m, []round{r, traced}) }},
	} {
		m := map[string]metric{}
		tc.add(m)
		if len(m) != len(tc.decls) {
			t.Errorf("benchmark prints %d metrics, BENCHMARK.json declares %d", len(m), len(tc.decls))
		}
		for _, d := range tc.decls {
			if got, ok := m[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: printed %+v (present %v), declared unit %q", d.Name, got, ok, d.Unit)
			}
		}
	}
}
