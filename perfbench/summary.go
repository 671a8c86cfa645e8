package main

import (
	"strings"

	"contory/internal/fleet"
	"contory/internal/metrics"
)

// firstItemPrefix names the per-mechanism first-item latency histograms.
const firstItemPrefix = "core.query.first_item_latency_ms."

// counters indexes a snapshot's counters by name.
func counters(s metrics.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(s.Counters))
	for _, c := range s.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// gauges indexes a snapshot's gauges by name.
func gauges(s metrics.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Gauges))
	for _, g := range s.Gauges {
		m[g.Name] = g.Value
	}
	return m
}

// sumPrefix adds every counter whose name starts with prefix.
func sumPrefix(c map[string]int64, prefix string) int64 {
	var n int64
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// histogram returns the snapshot's histogram with the given name.
func histogram(s metrics.Snapshot, name string) (metrics.HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return metrics.HistogramPoint{}, false
}

// mergeHistograms sums histograms that share one bucket layout into one.
// Buckets hold cumulative counts, so adding them bucket by bucket is the
// histogram of the union of the samples. ok is false when two layouts
// differ, since such a merge would not be exact.
func mergeHistograms(hs []metrics.HistogramPoint) (merged metrics.HistogramPoint, ok bool) {
	for _, h := range hs {
		if h.Count == 0 {
			continue
		}
		if merged.Count == 0 {
			merged = h
			merged.Buckets = append([]metrics.Bucket(nil), h.Buckets...)
			continue
		}
		if len(h.Buckets) != len(merged.Buckets) {
			return metrics.HistogramPoint{}, false
		}
		for i := range merged.Buckets {
			if h.Buckets[i].Le != merged.Buckets[i].Le {
				return metrics.HistogramPoint{}, false
			}
			merged.Buckets[i].Count += h.Buckets[i].Count
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
		merged.Min = min(merged.Min, h.Min)
		merged.Max = max(merged.Max, h.Max)
	}
	return merged, true
}

// firstItem merges the first-item latency histograms of every mechanism.
func firstItem(s metrics.Snapshot) (metrics.HistogramPoint, bool) {
	var hs []metrics.HistogramPoint
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, firstItemPrefix) {
			hs = append(hs, h)
		}
	}
	return mergeHistograms(hs)
}

// outcome is what one Engine.Run did, as its summary reports it.
type outcome struct {
	// attempted counts submitted queries; failed those refused at
	// submission, rejected by QoS admission or shed by overload control.
	attempted, failed int64
	answered          int64 // queries that delivered at least one item
	items             int64
	p50, p99          float64 // merged first-item latency, virtual ms
	joules            float64 // battery energy of every phone
}

// outcomeOf reads the user-visible results from a summary. The core
// counts a QoS rejection in core.query.rejected too, so only shedding is
// added on top of it.
func outcomeOf(s fleet.Summary) (outcome, bool) {
	c := counters(s.Snapshot)
	fi, ok := firstItem(s.Snapshot)
	if !ok {
		return outcome{}, false
	}
	o := outcome{
		attempted: c["core.query.submitted"],
		failed:    c["core.query.rejected"] + c["qos.shed"],
		answered:  fi.Count,
		items:     s.ItemsDelivered,
	}
	if fi.Count > 0 {
		o.p50 = fi.Quantile(0.50)
		o.p99 = fi.Quantile(0.99)
	}
	for _, ce := range s.Energy {
		o.joules += ce.TotalJoules
	}
	return o, true
}

// workCounts are the per-layer work counts of one run. They are exact for
// a seed: a change that only makes the host faster leaves them alone.
func workCounts(s fleet.Summary) map[string]float64 {
	c := counters(s.Snapshot)
	g := gauges(s.Snapshot)
	var umtsJ float64
	for name, v := range g {
		if strings.HasPrefix(name, "energy.joules.umts-") {
			umtsJ += v
		}
	}
	return map[string]float64{
		"vclock.events":              float64(s.Events),
		"vclock.batches":             float64(s.Batches),
		"vclock.barriers":            float64(s.Barriers),
		"simnet.wifi_frames_sent":    float64(s.Frames["wifi"].Sent),
		"simnet.wifi_frames_dropped": float64(s.Frames["wifi"].Dropped),
		"simnet.umts_frames_sent":    float64(s.Frames["umts"].Sent),
		"refs.wifi_finder_queries":   float64(c["refs.wifi.finder_queries"]),
		"refs.wifi_finder_timeouts":  float64(c["refs.wifi.finder_timeouts"]),
		"refs.wifi_route_builds":     float64(c["refs.wifi.route_builds"]),
		"refs.umts_requests":         float64(c["refs.umts.requests"]),
		"refs.umts_queued":           float64(c["refs.umts.queued"]),
		"core.providers_created":     float64(sumPrefix(c, "core.facade.providers_created.")),
		"core.cache_hits":            float64(c["core.cache.hits"]),
		"core.cache_misses":          float64(c["core.cache.misses"]),
		"core.mux_attached":          float64(sumPrefix(c, "core.mux.attached.")),
		"qos.deferred":               float64(c["qos.deferred"]),
		"energy.umts_joules":         umtsJ,
		"energy.sm_hop_joules":       g["energy.joules.sm-hop"],
	}
}
