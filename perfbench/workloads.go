package main

import (
	"fmt"
	"time"

	"contory/internal/fleet"
	"contory/internal/timeline"
)

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"adhoc-roam", "shared-plane", "observed"}

// observedSLOs give the flight recorder objectives to evaluate every window.
var observedSLOs = []timeline.SLO{
	{Metric: timeline.MetricP99FirstItemMs, Op: "<", Threshold: 60000},
	{Metric: timeline.MetricCacheHitRatio, Op: ">", Threshold: 0.3},
}

// specFor builds the fleet scenario of one workload. The seed is the only
// input that varies between runs; everything else is fixed here so a run is
// reproducible from its command line.
//
// No workload uses the infra-one-shot role or lets UMTS-only phones draw
// the ad hoc role (which the engine turns into infra-one-shot): on those
// phones refs.UMTSReference reports an infrastructure "no data" reply as a
// UMTS failure, nothing ever reports a recovery, and every later extInfra
// query on the phone is refused. See the README.
func specFor(name string, seed int64) (fleet.Spec, error) {
	switch name {
	case "adhoc-roam":
		// Most host time goes to simnet neighbour lookup, SM routing and
		// radio sampler construction; the core plane is nearly idle.
		return fleet.Spec{
			Name: name, Phones: 2500, Seed: seed, Duration: 2 * time.Minute,
			MobilitySpeedMS: 1.5,
			Radio:           fleet.RadioMix{Dual: 0.6, WiFiOnly: 0.4},
			Workload: fleet.Workload{
				AdHocPeriodic: 0.6, LocalPeriodic: 0.15,
				Period: 30 * time.Second,
			},
			Churn: fleet.Churn{LeaveJoinPerMin: 0.03, LinkFailuresPerMin: 20},
		}, nil
	case "shared-plane":
		// Tens of thousands of short one-shot queries through the answer
		// cache, the multiplexer, the QoS queue and the single UMTS channel.
		return fleet.Spec{
			Name: name, Phones: 1000, Seed: seed, Duration: 6 * time.Minute,
			Radio: fleet.RadioMix{Dual: 0.5, UMTSOnly: 0.5},
			Workload: fleet.Workload{
				DupHeavy: 0.6, Overload: 0.15, LocalEvent: 0.15,
				Period: 30 * time.Second,
			},
			Cache: fleet.CacheSpec{Enabled: true, TTL: 4 * time.Minute},
			QoS:   fleet.QoSSpec{Enabled: true, Rate: 1, Burst: 4, QueueCap: 64, MaxActive: 8},
		}, nil
	case "observed":
		// The only workload with tracing, the flight recorder and the
		// auditor on.
		return fleet.Spec{
			Name: name, Phones: 1500, Seed: seed, Duration: 5 * time.Minute,
			MobilitySpeedMS: 1,
			Radio:           fleet.RadioMix{Dual: 0.8, WiFiOnly: 0.2},
			Workload: fleet.Workload{
				LocalPeriodic: 0.12, LocalEvent: 0.03, AdHocPeriodic: 0.28, DupHeavy: 0.5,
				Period: 30 * time.Second,
			},
			Churn:    fleet.Churn{LeaveJoinPerMin: 0.02, LinkFailuresPerMin: 5},
			Cache:    fleet.CacheSpec{Enabled: true},
			Trace:    fleet.TraceSpec{Enabled: true, Sample: 1},
			Timeline: fleet.TimelineSpec{Enabled: true, SLOs: observedSLOs},
			Audit:    fleet.AuditSpec{Enabled: true},
		}, nil
	}
	return fleet.Spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
