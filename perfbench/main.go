// Command perfbench is the repository's benchmark. It builds one fleet
// workload with fleet.New, runs it with Engine.Run, checks the outputs and
// prints every metric by name and unit as one JSON line:
//
//	perfbench --workload adhoc-roam --seed 1 --seconds 20 --trace 0
//
// A run repeats whole rounds of set-up plus run for --seconds and reports
// medians. Timed rounds use one executor worker; run it with GOMAXPROCS=1
// (run.sh does). --trace 1 alternates plain rounds with rounds under the
// CPU and heap profilers and reports the per-layer metrics instead.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"contory/internal/fleet"
)

const (
	// minTimed keeps a median meaningful when one round outlasts --seconds.
	// The first round of a process runs on a cold heap and is slower; it is
	// checked but not timed.
	minTimed = 3
	// cpuProfileHz is the traced rounds' sampling rate; the default 100 Hz
	// leaves the smaller layers with a handful of samples.
	cpuProfileHz = 500
	// heapProfileRate samples one allocation per this many bytes in traced
	// rounds.
	heapProfileRate = 16 << 10
	mb              = 1e6
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is what one set-up plus run measured.
type round struct {
	setup, run        time.Duration
	runCPU            time.Duration // process CPU time during run
	setupAlloc        uint64
	runAlloc, mallocs uint64
	liveHeap          uint64
	events            uint64
	summary           []byte // the modelled summary, byte-compared across rounds
	outcome           outcome
	work              map[string]float64
	check             error         // what the first round's correctness checks found
	profile           *layerProfile // traced rounds only
}

// layerProfile is one traced round's per-layer CPU seconds and bytes.
type layerProfile struct {
	cpu   map[string]float64
	alloc map[string]float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: adhoc-roam, shared-plane or observed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 35, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from profiled rounds instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := specFor(*workload, *seed)
	if err != nil {
		return err
	}

	var rounds []round
	var peakHeap uint64
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for len(rounds) < 1+minTimed+*trace || time.Now().Before(deadline) {
		// In traced runs odd rounds are profiled and even rounds are plain,
		// so both see the same host conditions.
		r, err := runRound(spec, *trace == 1 && len(rounds)%2 == 1)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		if len(rounds) == 1 {
			// The high-water mark of one set-up and run in a fresh
			// process, as a single fleet run reaches it.
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peakHeap = ms.HeapSys
		}
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, run %.3fs (CPU %.3fs), %.0f events/s, profiled %v\n",
			len(rounds)-1, r.setup.Seconds(), r.run.Seconds(), r.runCPU.Seconds(), eventsPerSecond(r), r.profile != nil)
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	errs := []error{rounds[0].check}
	for i, r := range rounds {
		res.Attempted += r.outcome.attempted
		res.Failed += r.outcome.failed
		if !bytes.Equal(r.summary, rounds[0].summary) {
			errs = append(errs, fmt.Errorf("round %d summary differs from round 0 at the same seed", i))
		}
	}
	if *trace == 1 {
		// Traced runs report no end-to-end timings, so they can afford
		// to check determinism across worker counts too.
		errs = append(errs, checkWorkers(spec, rounds[0].summary))
		addLayerMetrics(res.Metrics, rounds[1:])
	} else {
		addEndToEnd(res.Metrics, rounds[1:], peakHeap)
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", err)
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runRound builds and runs the workload once.
func runRound(spec fleet.Spec, traced bool) (round, error) {
	var r round
	var m0, m1, m2 runtime.MemStats

	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	e, err := fleet.New(spec)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&m1)
	r.setupAlloc = m1.TotalAlloc - m0.TotalAlloc

	runtime.GC()
	var prof *profiler
	if traced {
		if prof, err = startProfile(); err != nil {
			return r, err
		}
	}
	runtime.ReadMemStats(&m1)
	start := e.World().Now()
	c1, t1 := cpuTime(), time.Now()
	sum, err := e.Run(1)
	r.run, r.runCPU = time.Since(t1), cpuTime()-c1
	runtime.ReadMemStats(&m2)
	if prof != nil {
		if r.profile, err = prof.stop(r.runCPU); err != nil {
			return r, err
		}
	}
	if err != nil {
		return r, err
	}
	end := e.World().Now()
	r.runAlloc = m2.TotalAlloc - m1.TotalAlloc
	r.mallocs = m2.Mallocs - m1.Mallocs
	r.events = sum.Events

	// Live heap with the whole world still reachable.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.liveHeap = m2.HeapAlloc

	var ok bool
	if r.outcome, ok = outcomeOf(sum); !ok {
		return r, fmt.Errorf("first-item histograms do not share one bucket layout")
	}
	r.work = workCounts(sum)
	if r.summary, err = sum.JSON(); err != nil {
		return r, err
	}
	r.check = checkRun(e, sum, r.outcome, start, end)
	runtime.KeepAlive(e)
	return r, nil
}

// checkWorkers runs the workload once more at two executor workers on two
// threads and compares its modelled summary with the single-worker one.
func checkWorkers(spec fleet.Spec, want []byte) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e, err := fleet.New(spec)
	if err != nil {
		return err
	}
	sum, err := e.Run(2)
	if err != nil {
		return err
	}
	got, err := sum.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("summary at 2 workers differs from 1 worker at the same seed")
	}
	return nil
}

// profiler holds one traced round's profiling state.
type profiler struct {
	buf      bytes.Buffer
	heap0    []runtime.MemProfileRecord
	heapRate int
}

// startProfile starts the CPU profiler at cpuProfileHz and samples the heap
// at heapProfileRate until stop.
func startProfile() (*profiler, error) {
	p := &profiler{heap0: memProfile(), heapRate: runtime.MemProfileRate}
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a warning about that to standard error.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	runtime.MemProfileRate = heapProfileRate
	return p, nil
}

// stop ends profiling and attributes the round's CPU time and allocated
// bytes to layers. Sampled CPU shares are scaled to the CPU time the
// process used while profiled, so the figures keep every digit.
func (p *profiler) stop(used time.Duration) (*layerProfile, error) {
	pprof.StopCPUProfile()
	runtime.MemProfileRate = p.heapRate
	ns, err := cpuByLayer(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	lp := &layerProfile{cpu: map[string]float64{}}
	for l, v := range ns {
		lp.cpu[l] = used.Seconds() * float64(v) / float64(max(total, 1))
	}
	// The heap profile covers allocations up to the last completed GC.
	runtime.GC()
	lp.alloc = allocByLayer(p.heap0, memProfile(), heapProfileRate)
	return lp, nil
}

// memProfile reads every heap-profile record.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// cpuTime is the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every round and takes the median.
func medianOf(rounds []round, f func(round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func eventsPerSecond(r round) float64 { return float64(r.events) / r.run.Seconds() }

// addEndToEnd adds the metrics a user of the simulator sees.
func addEndToEnd(m map[string]metric, rounds []round, peakHeap uint64) {
	o := rounds[0].outcome
	m["setup_s"] = metric{medianOf(rounds, func(r round) float64 { return r.setup.Seconds() }), "s"}
	m["events_per_s"] = metric{medianOf(rounds, eventsPerSecond), "events/s"}
	m["bytes_per_event"] = metric{medianOf(rounds, func(r round) float64 {
		return float64(r.runAlloc) / float64(r.events)
	}), "B"}
	m["allocs_per_event"] = metric{medianOf(rounds, func(r round) float64 {
		return float64(r.mallocs) / float64(r.events)
	}), "count"}
	m["setup_alloc_mb"] = metric{medianOf(rounds, func(r round) float64 { return float64(r.setupAlloc) / mb }), "MB"}
	m["live_heap_mb"] = metric{medianOf(rounds, func(r round) float64 { return float64(r.liveHeap) / mb }), "MB"}
	m["peak_heap_mb"] = metric{float64(peakHeap) / mb, "MB"}
	m["queries_answered"] = metric{float64(o.answered), "count"}
	m["items_delivered"] = metric{float64(o.items), "count"}
	m["first_item_p50_ms"] = metric{o.p50, "ms"}
	m["first_item_p99_ms"] = metric{o.p99, "ms"}
	m["joules_per_item"] = metric{o.joules / float64(o.items), "J"}
}

// addLayerMetrics adds the per-layer figures: CPU seconds and allocated MB
// per profiled Engine.Run, the work counts, and what profiling cost.
func addLayerMetrics(m map[string]metric, rounds []round) {
	var plain, traced []round
	for _, r := range rounds {
		if r.profile != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	n := float64(len(traced))
	mean := func(get func(*layerProfile) map[string]float64, layer string) float64 {
		var v float64
		for _, r := range traced {
			v += get(r.profile)[layer]
		}
		return v / n
	}
	cpu := func(p *layerProfile) map[string]float64 { return p.cpu }
	alloc := func(p *layerProfile) map[string]float64 { return p.alloc }
	for _, l := range layers {
		m[l+".cpu_s"] = metric{mean(cpu, l), "s"}
		m[l+".alloc_mb"] = metric{mean(alloc, l) / mb, "MB"}
	}
	m["runtime.gc_cpu_s"] = metric{mean(cpu, gcLayer), "s"}
	for name, v := range rounds[0].work {
		unit := "count"
		if name == "energy.umts_joules" || name == "energy.sm_hop_joules" {
			unit = "J"
		}
		m[name] = metric{v, unit}
	}
	plainEPS, tracedEPS := medianOf(plain, eventsPerSecond), medianOf(traced, eventsPerSecond)
	m["untraced_events_per_s"] = metric{plainEPS, "events/s"}
	m["traced_events_per_s"] = metric{tracedEPS, "events/s"}
	m["tracing_overhead_pct"] = metric{100 * (plainEPS - tracedEPS) / plainEPS, "%"}
}
