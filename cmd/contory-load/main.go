// Command contory-load drives the fleet-scale load engine: it expands a
// seeded scenario into thousands of simulated phones, runs them for a span
// of virtual time across a parallel worker pool, and reports the fleet
// summary (queries/s of virtual time, delivery-latency percentiles, energy
// per device class, failover counts).
//
// Usage:
//
//	contory-load -phones 5000 -duration 10m -stats-out BENCH_fleet.json
//	contory-load -phones 1000 -duration 5m -workers 8 -stats
//	contory-load -sweep 1000,2000,5000 -duration 10m -bench-out BENCH_fleet.json
//	contory-load -phones 1000 -duration 6m -cache -dup 0.6 -cpuprofile cpu.out -memprofile mem.out
//
// Same seed, same summary bytes — at any -workers value or GOMAXPROCS.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"contory/internal/fleet"
	"contory/internal/timeline"
	"contory/internal/tracing"
)

func main() {
	var (
		phones   = flag.Int("phones", 1000, "fleet population size")
		duration = flag.Duration("duration", 10*time.Minute, "virtual time to run")
		seed     = flag.Int64("seed", 42, "deterministic scenario seed")
		workers  = flag.Int("workers", 0, "parallel event workers (0 = GOMAXPROCS)")
		lanes    = flag.Int("lanes", 0, "device shard lanes (0 = auto)")
		area     = flag.Float64("area", 0, "deployment area side in metres (0 = auto-size for ~10 WiFi neighbors)")
		period   = flag.Duration("period", 30*time.Second, "base query/workload period")
		mobility = flag.Float64("mobility", 1.0, "max phone speed in m/s (0 = static)")
		leave    = flag.Float64("churn-leave", 0.02, "per-phone leave/join probability per virtual minute")
		links    = flag.Float64("churn-links", 5, "expected WiFi link failures per virtual minute")
		chaosP   = flag.String("chaos", "", "chaos profile to inject (flap, partition, outage, hang, gps, battery, mixed; \"\" = off)")
		chaosR   = flag.Float64("chaos-rate", 1.0, "scale factor on the chaos profile's fault rates")
		gpsFrac  = flag.Float64("gps", 0, "fraction of phones carrying a BT-GPS receiver (enables the gps-periodic workload)")
		cacheOn  = flag.Bool("cache", false, "enable the per-phone answer cache (shared provisioning plane)")
		cacheTTL = flag.Duration("cache-ttl", 0, "cache staleness bound for types without item lifetimes (0 = 2x -period)")
		dupFrac  = flag.Float64("dup", 0, "fraction of phones running the duplicate-heavy workload; replaces the default mix (bursts of identical cacheable extInfra queries)")
		qosOn    = flag.Bool("qos", false, "enable the QoS provisioning plane (admission control, deadline-aware scheduling, overload shedding)")
		qosRate  = flag.Float64("qos-rate", 0, "per-client sustained admission rate in queries/s when -qos is on (0 = default)")
		qosBurst = flag.Int("qos-burst", 0, "per-client admission burst size when -qos is on (0 = default)")
		qosQueue = flag.Int("qos-queue", 0, "pending-query queue bound per phone when -qos is on (0 = default)")
		qosSlots = flag.Int("qos-slots", 0, "concurrent live-provisioning slots per phone when -qos is on (0 = default)")
		overload = flag.Float64("overload", 0, "fraction of phones running the overload-burst workload; replaces the default mix (bursts of distinct tight-FRESHNESS extInfra queries that serialize on the UMTS channel)")
		auditOn  = flag.Bool("audit", false, "run the conservation-law auditor over the fleet (quiesces the run, checks slot/refcount/timer/accounting invariants; violations fail the run)")
		stats    = flag.Bool("stats", false, "print the full summary JSON to stdout")
		statsOut = flag.String("stats-out", "", "write the run summary JSON to this file")
		benchOut = flag.String("bench-out", "", "write sweep wall-clock timings JSON to this file")
		benchGo  = flag.String("bench-go", "", "append sweep timings in Go benchmark format to this file (benchstat-friendly)")
		sweep    = flag.String("sweep", "", "comma-separated phone counts to run back to back (e.g. 1000,2000,5000)")
		traceOn  = flag.Bool("trace", false, "record per-query span trees (deterministic distributed tracing)")
		traceOut = flag.String("trace-out", "", "write retained traces as Chrome trace-event JSON (open in Perfetto); implies -trace")
		traceSmp = flag.Int("trace-sample", 0, "keep one trace in N by trace-id residue (<=1 keeps all)")
		tlOn     = flag.Bool("timeline", false, "arm the flight recorder: periodic metric delta-windows, SLO evaluation and burn-rate alerting")
		tlEvery  = flag.Duration("timeline-interval", 10*time.Second, "flight-recorder sampling window in virtual time")
		tlSLO    = flag.String("slo", "", "comma-separated SLO objectives evaluated per window (e.g. p99_first_item_ms<5000,cache_hit_ratio>0.5); implies -timeline")
		tlOut    = flag.String("timeline-out", "", "write the flight-recorder report JSON to this file; implies -timeline")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's lifetime")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole process to this file (read with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile (every sampled allocation of the process) to this file when the run ends (read with go tool pprof)")
	)
	flag.Parse()
	if *tlSLO != "" || *tlOut != "" {
		*tlOn = true
	}
	if err := validateFlags(loadFlags{
		phones: *phones, duration: *duration, workers: *workers,
		qosRate: *qosRate, overload: *overload, audit: *auditOn,
		sweep: *sweep, timeline: *tlOn, timelineInterval: *tlEvery,
		statsOut: *statsOut, benchOut: *benchOut, benchGo: *benchGo,
		traceOut: *traceOut, timelineOut: *tlOut,
		cpuProfile: *cpuProf, memProfile: *memProf,
	}); err != nil {
		fail(err)
	}
	slos, err := timeline.ParseSLOList(*tlSLO)
	if err != nil {
		fail(err)
	}
	if *traceOut != "" {
		*traceOn = true
	}
	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintln(os.Stderr, "contory-load: pprof:", err)
			}
		}()
		fmt.Fprintln(os.Stderr, "pprof listening on", *pprofAt)
	}
	// Profiles cover set-up and every run; they are written when main
	// returns normally (a failed run exits without them).
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fail(err)
		}
	}()

	specFor := func(n int) fleet.Spec {
		spec := fleet.Spec{
			Name:            fmt.Sprintf("load-%d", n),
			Phones:          n,
			Seed:            *seed,
			Duration:        *duration,
			AreaMetres:      *area,
			Lanes:           *lanes,
			MobilitySpeedMS: *mobility,
			GPSFraction:     *gpsFrac,
			Workload:        fleet.Workload{Period: *period},
			Churn:           fleet.Churn{LeaveJoinPerMin: *leave, LinkFailuresPerMin: *links},
			Chaos:           fleet.ChaosSpec{Profile: *chaosP, Rate: *chaosR},
			Trace:           fleet.TraceSpec{Enabled: *traceOn, Sample: *traceSmp},
			Cache:           fleet.CacheSpec{Enabled: *cacheOn, TTL: *cacheTTL},
			QoS: fleet.QoSSpec{
				Enabled: *qosOn, Rate: *qosRate, Burst: *qosBurst,
				QueueCap: *qosQueue, MaxActive: *qosSlots,
			},
			Audit: fleet.AuditSpec{Enabled: *auditOn},
			Timeline: fleet.TimelineSpec{
				Enabled:  *tlOn,
				Interval: *tlEvery,
				SLOs:     slos,
			},
		}
		if *dupFrac > 0 {
			// A pure duplicate-heavy fleet: the cleanest cache-on-vs-off
			// comparison at identical seeds.
			spec.Workload = fleet.Workload{DupHeavy: *dupFrac, Period: *period}
		}
		if *overload > 0 {
			// A pure overload fleet: the cleanest qos-on-vs-off comparison
			// at identical seeds (pair with -cache so the QoS plane can
			// degrade the burst tail to stale-cache answers).
			spec.Workload = fleet.Workload{Overload: *overload, Period: *period}
		}
		if *gpsFrac > 0 {
			// GPS carriers run the failover-exercising location workload
			// alongside the default mix.
			spec.Workload = fleet.Workload{
				GPSPeriodic:   0.4,
				LocalPeriodic: 0.2,
				AdHocPeriodic: 0.1,
				InfraOneShot:  0.2,
				Period:        *period,
			}
		}
		return spec
	}

	if *sweep != "" {
		if err := runSweep(*sweep, specFor, *workers, *benchOut, *benchGo); err != nil {
			fail(err)
		}
		return
	}

	sum, eng, wall, mem, err := runOne(specFor(*phones), *workers)
	if err != nil {
		fail(err)
	}
	printSummary(sum, wall)
	if sum.Audit != nil && len(sum.Audit.Violations) > 0 {
		for _, v := range sum.Audit.Violations {
			fmt.Fprintln(os.Stderr, "contory-load: audit:", v)
		}
		fail(fmt.Errorf("audit found %d invariant violations", len(sum.Audit.Violations)))
	}
	if *traceOut != "" {
		if err := exportTraces(eng, *traceOut, sum.Timeline); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "chrome trace written to", *traceOut)
	}
	if *tlOut != "" {
		if sum.Timeline == nil {
			fail(fmt.Errorf("run recorded no timeline"))
		}
		js, err := json.MarshalIndent(sum.Timeline, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := writeFile(*tlOut, append(js, '\n')); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "timeline report written to", *tlOut)
	}
	if *stats {
		js, err := sum.JSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(js))
	}
	if *statsOut != "" {
		js, err := sum.JSON()
		if err != nil {
			fail(err)
		}
		if err := writeFile(*statsOut, append(js, '\n')); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "fleet summary written to", *statsOut)
	}
	if *benchOut != "" || *benchGo != "" {
		entry := benchEntry(sum, wall, mem)
		if *benchOut != "" {
			data, err := json.MarshalIndent(benchDoc{Bench: "fleet", Runs: []benchRun{entry}}, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := writeFile(*benchOut, append(data, '\n')); err != nil {
				fail(err)
			}
			fmt.Fprintln(os.Stderr, "bench timings written to", *benchOut)
		}
		if *benchGo != "" {
			if err := appendFile(*benchGo, []byte(benchGoLine(entry))); err != nil {
				fail(err)
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "contory-load:", err)
	os.Exit(1)
}

// loadFlags holds the flag values validateFlags checks.
type loadFlags struct {
	phones           int
	duration         time.Duration
	workers          int
	qosRate          float64
	overload         float64
	audit            bool
	sweep            string
	timeline         bool
	timelineInterval time.Duration

	// Output files, by flag.
	statsOut, benchOut, benchGo, traceOut, timelineOut string
	cpuProfile, memProfile                             string
}

// validateFlags rejects flag values that would otherwise surface as a
// confusing engine panic, an instantly-finished run or one output file
// silently overwriting another. -workers keeps 0 as its documented "use
// GOMAXPROCS" sentinel; only negatives are refused.
func validateFlags(f loadFlags) error {
	if f.phones <= 0 {
		return fmt.Errorf("-phones must be positive, got %d", f.phones)
	}
	if f.duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %s", f.duration)
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", f.workers)
	}
	if f.qosRate < 0 {
		return fmt.Errorf("-qos-rate must be >= 0 (0 = default), got %g", f.qosRate)
	}
	if f.overload < 0 || f.overload > 1 {
		return fmt.Errorf("-overload must be a fraction in [0, 1], got %g", f.overload)
	}
	if f.audit && (f.sweep != "" || f.benchOut != "") {
		return fmt.Errorf("-audit quiesces each run with a virtual-time drain, which would skew -sweep/-bench-out timings; audit a single run without -bench-out")
	}
	if f.timeline && f.timelineInterval <= 0 {
		return fmt.Errorf("-timeline-interval must be positive, got %s", f.timelineInterval)
	}
	outputs := []struct{ flag, path string }{
		{"stats-out", f.statsOut}, {"bench-out", f.benchOut}, {"bench-go", f.benchGo},
		{"trace-out", f.traceOut}, {"timeline-out", f.timelineOut},
		{"cpuprofile", f.cpuProfile}, {"memprofile", f.memProfile},
	}
	writer := map[string]string{} // cleaned path → flag writing it
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		path := filepath.Clean(o.path)
		if prev, dup := writer[path]; dup {
			return fmt.Errorf("-%s and -%s both write %s", prev, o.flag, o.path)
		}
		writer[path] = o.flag
	}
	return nil
}

// startProfiles starts the CPU profiler when cpuPath is set. The returned
// stop function ends it and, when memPath is set, writes the allocation
// profile (every sampled allocation since the process started; the heap
// in use after a final GC rides along as the inuse sample types).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = createFile(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("close %s: %w", cpuPath, err)
			}
			fmt.Fprintln(os.Stderr, "cpu profile written to", cpuPath)
		}
		if memPath == "" {
			return nil
		}
		f, err := createFile(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", memPath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", memPath, err)
		}
		fmt.Fprintln(os.Stderr, "allocation profile written to", memPath)
		return nil
	}, nil
}

// benchMem is the allocation profile of one run, measured by
// runtime.ReadMemStats deltas around the engine execution: total heap
// allocations and bytes during the run, plus the process heap high-water
// mark (HeapSys) after it. Future perf PRs gate on allocation per event as
// well as throughput.
type benchMem struct {
	allocs   uint64
	bytes    uint64
	peakHeap uint64
}

// runOne builds and runs one scenario, returning its summary, the engine
// (for post-run trace export), the wall-clock time the run took and its
// allocation profile. The run executes under pprof labels so CPU profiles
// split by scenario.
func runOne(spec fleet.Spec, workers int) (fleet.Summary, *fleet.Engine, time.Duration, benchMem, error) {
	e, err := fleet.New(spec)
	if err != nil {
		return fleet.Summary{}, nil, 0, benchMem{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var sum fleet.Summary
	labels := pprof.Labels("scenario", spec.Name, "phones", strconv.Itoa(spec.Phones))
	pprof.Do(context.Background(), labels, func(context.Context) {
		sum, err = e.Run(workers)
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fleet.Summary{}, nil, 0, benchMem{}, err
	}
	mem := benchMem{
		allocs:   ms1.Mallocs - ms0.Mallocs,
		bytes:    ms1.TotalAlloc - ms0.TotalAlloc,
		peakHeap: ms1.HeapSys,
	}
	return sum, e, wall, mem, nil
}

// exportTraces writes the engine's retained traces as Chrome trace-event
// JSON (chrome://tracing / Perfetto format). With the flight recorder on,
// its derived series and alerts ride along as counter tracks and instant
// markers under a "timeline" pseudo-process, aligned with the span rows.
func exportTraces(e *fleet.Engine, path string, rep *timeline.Report) error {
	tr := e.World().Tracer()
	if tr == nil {
		return fmt.Errorf("run was not traced (pass -trace)")
	}
	var extras tracing.ChromeExtras
	if rep != nil {
		extras = timeline.ChromeExtras(*rep)
	}
	data, err := tracing.ChromeJSONWithExtras(tr.Store().Traces(), extras)
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// printSummary renders the human-readable report.
func printSummary(s fleet.Summary, wall time.Duration) {
	fmt.Printf("fleet %s: %d phones, %d lanes, %.0fs virtual in %s wall\n",
		s.Name, s.Phones, s.Lanes, s.VirtualSeconds, wall.Round(time.Millisecond))
	fmt.Printf("  queries   %d submitted (%.2f/s virtual), %d items delivered, %d failovers, %d expired, %d rejected\n",
		s.QueriesSubmitted, s.QueriesPerSec, s.ItemsDelivered, s.Failovers, s.Expired, s.Rejected)
	mechs := make([]string, 0, len(s.Latency))
	for m := range s.Latency {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		l := s.Latency[m]
		fmt.Printf("  latency   %-13s p50 %.1f ms  p90 %.1f ms  p99 %.1f ms  max %.1f ms  (n=%d)\n",
			m, l.P50, l.P90, l.P99, l.Max, l.Count)
	}
	media := make([]string, 0, len(s.Frames))
	for m := range s.Frames {
		media = append(media, m)
	}
	sort.Strings(media)
	for _, m := range media {
		f := s.Frames[m]
		fmt.Printf("  frames    %-6s sent %d delivered %d dropped %d\n", m, f.Sent, f.Delivered, f.Dropped)
	}
	classes := make([]string, 0, len(s.Energy))
	for c := range s.Energy {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		e := s.Energy[c]
		fmt.Printf("  energy    %-10s %d phones, %.2f J mean\n", c, e.Phones, e.MeanJoules)
	}
	if s.CacheMux != nil {
		c := s.CacheMux
		fmt.Printf("  cache     %d hits / %d misses (ratio %.2f), %d refreshes, %d promotions\n",
			c.Hits, c.Misses, c.HitRatio, c.Refreshes, c.Promotions)
		fmt.Printf("  mux       %d attached, %d detached, %d shared streams\n",
			c.MuxAttached, c.MuxDetached, c.SharedStreams)
	}
	if s.QoS != nil {
		q := s.QoS
		fmt.Printf("  qos       %d admitted, %d deferred (%d released), %d degraded, %d rejected, %d shed; p99 first item %.1f ms\n",
			q.Admitted, q.Deferred, q.Released, q.Degraded, q.Rejected, q.Shed, q.P99FirstItemMs)
	}
	if s.Audit != nil {
		fmt.Printf("  audit     %d queries tracked, %d checks, %d timers live, %d violations\n",
			s.Audit.Queries, s.Audit.Checks, s.Audit.LiveTimers, len(s.Audit.Violations))
	}
	if s.Chaos != nil {
		fmt.Printf("  chaos     %s profile: %d faults injected, %d/%d switches attributed (%d unattributed)\n",
			s.Chaos.Profile, s.Chaos.Faults, s.Chaos.Attributed, s.Chaos.Switches, s.Chaos.Unattributed)
	}
	if s.Trace != nil {
		fmt.Printf("  tracing   %d traces started, %d retained (%d spans), %d sampled out, %d/%d traces/spans dropped\n",
			s.Trace.Started, s.Trace.Retained, s.Trace.Spans, s.Trace.SampledOut,
			s.Trace.DroppedTraces, s.Trace.DroppedSpans)
	}
	if s.Timeline != nil {
		fmt.Printf("  %s\n", timeline.Describe(*s.Timeline))
	}
	fmt.Printf("  executor  %d events in %d batches, %d lane groups, %d barriers\n",
		s.Events, s.Batches, s.Groups, s.Barriers)
}

// benchDoc is the BENCH_*.json artifact shape: one file, one bench name,
// one entry per scenario run.
type benchDoc struct {
	Bench string     `json:"bench"`
	Runs  []benchRun `json:"runs"`
}

type benchRun struct {
	Phones         int     `json:"phones"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallMS         float64 `json:"wall_ms"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_wall_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
	Queries        int64   `json:"queries_submitted"`
	Items          int64   `json:"items_delivered"`
	Failovers      int64   `json:"failovers"`
}

func benchEntry(s fleet.Summary, wall time.Duration, mem benchMem) benchRun {
	r := benchRun{
		Phones:         s.Phones,
		VirtualSeconds: s.VirtualSeconds,
		WallMS:         float64(wall) / float64(time.Millisecond),
		Events:         s.Events,
		PeakHeapBytes:  mem.peakHeap,
		Queries:        s.QueriesSubmitted,
		Items:          s.ItemsDelivered,
		Failovers:      s.Failovers,
	}
	if wall > 0 {
		r.EventsPerSec = float64(s.Events) / wall.Seconds()
	}
	if s.Events > 0 {
		r.AllocsPerEvent = float64(mem.allocs) / float64(s.Events)
		r.BytesPerEvent = float64(mem.bytes) / float64(s.Events)
	}
	return r
}

// benchGoLine renders one run as a Go testing benchmark result line, the
// format benchstat consumes, so repeated `make load-bench COUNT=n` sweeps
// can be compared statistically.
func benchGoLine(r benchRun) string {
	return fmt.Sprintf("BenchmarkFleet/phones=%d 1 %d ns/op %.1f allocs/event %.1f bytes/event %.0f events/wall-sec\n",
		r.Phones, int64(r.WallMS*1e6), r.AllocsPerEvent, r.BytesPerEvent, r.EventsPerSec)
}

// runSweep runs the scenario at each population size and reports how
// wall-clock scales with fleet size.
func runSweep(list string, specFor func(int) fleet.Spec, workers int, benchOut, benchGo string) error {
	var counts []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sweep entry %q", part)
		}
		counts = append(counts, n)
	}
	doc := benchDoc{Bench: "fleet"}
	for _, n := range counts {
		sum, _, wall, mem, err := runOne(specFor(n), workers)
		if err != nil {
			return fmt.Errorf("sweep %d phones: %w", n, err)
		}
		printSummary(sum, wall)
		doc.Runs = append(doc.Runs, benchEntry(sum, wall, mem))
	}
	if benchOut != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(benchOut, append(data, '\n')); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench timings written to", benchOut)
	}
	if benchGo != "" {
		var lines []byte
		for _, r := range doc.Runs {
			lines = append(lines, benchGoLine(r)...)
		}
		if err := appendFile(benchGo, lines); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "benchstat lines appended to", benchGo)
	}
	return nil
}

// appendFile appends data, creating the file and parent directories as
// needed (repeated sweeps accumulate benchstat samples in one file).
func appendFile(path string, data []byte) error {
	if err := mkParent(path); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// createFile creates (or truncates) path, creating parent directories as
// needed.
func createFile(path string) (*os.File, error) {
	if err := mkParent(path); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	return f, nil
}

// writeFile writes data, creating parent directories as needed.
func writeFile(path string, data []byte) error {
	if err := mkParent(path); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// mkParent creates the parent directory of path if it does not exist.
func mkParent(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create %s: %w", dir, err)
		}
	}
	return nil
}
