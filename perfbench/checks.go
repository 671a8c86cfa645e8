package main

import (
	"fmt"
	"time"

	"contory/internal/core"
	"contory/internal/fleet"
)

// idleMilliwatts is the paper's measured draw of a phone with GSM, display,
// backlight and Bluetooth off (§6.1, 5.75 mW). Every simulated phone draws
// at least this much for the whole run.
const idleMilliwatts = 5.75

// minAnswered keeps first_item_p99_ms a real tail: with 1,000 answered
// queries at least ten samples lie beyond the 99th percentile.
const minAnswered = 1000

// checker collects the properties a run breaks. The checks use only what
// the method guarantees, never a copy of an earlier run's output.
type checker struct{ errs []error }

func (c *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		c.errs = append(c.errs, fmt.Errorf(format, args...))
	}
}

func (c *checker) err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%d check(s) failed, first: %w", len(c.errs), c.errs[0])
}

// checkRun verifies one finished run: s is its summary and o what the
// summary reports; start and end bracket the run in virtual time.
func checkRun(e *fleet.Engine, s fleet.Summary, o outcome, start, end time.Time) error {
	var c checker
	spec := e.Spec()
	c.expect(o.failed == 0, "%d of %d queries refused, rejected or shed", o.failed, o.attempted)
	c.expect(o.answered <= o.attempted-o.failed,
		"answered %d > submitted %d - refused %d", o.answered, o.attempted, o.failed)
	c.expect(o.answered >= minAnswered, "only %d queries answered, want >= %d", o.answered, minAnswered)
	c.expect(o.items >= o.answered, "items %d < answered queries %d", o.items, o.answered)
	c.expect(o.p50 > 0 && o.p50 <= o.p99, "first-item p50 %v, p99 %v", o.p50, o.p99)

	for medium, f := range s.Frames {
		c.expect(f.Delivered+f.Dropped <= f.Sent,
			"%s: delivered %d + dropped %d > sent %d", medium, f.Delivered, f.Dropped, f.Sent)
	}

	// No phone drains less than the idle floor over the run. Where every
	// intSensor query is a local periodic one, none can deliver more than
	// one item per EVERY period of the run.
	virt := end.Sub(start)
	floor := idleMilliwatts / 1000 * virt.Seconds()
	periodicOnly := spec.Workload.LocalEvent == 0
	limit := int(virt/spec.Workload.Period) + 1
	var total float64
	for i := 0; i < spec.Phones; i++ {
		p := e.World().Phone(phoneID(i))
		j := float64(p.Device.Node.Timeline().EnergyBetween(start, end))
		total += j
		c.expect(j >= floor, "phone %s drained %.3f J < idle floor %.3f J", p.ID(), j, floor)
		if !periodicOnly {
			continue
		}
		for _, id := range p.Factory.ActiveQueries() {
			if m, err := p.Factory.QueryMechanism(id); err != nil || m != core.MechanismLocal {
				continue
			}
			n := p.Factory.QueryStats(id).Delivered
			c.expect(n <= limit, "phone %s %s delivered %d items, at most %d fit", p.ID(), id, n, limit)
		}
	}
	c.expect(relClose(total, o.joules), "per-phone energy %.3f J != summary %.3f J", total, o.joules)

	if spec.Cache.Enabled {
		// Cache answers obey FRESHNESS, which the engine's cacheable
		// queries set to at most two periods, or the cache TTL when a query
		// has none. spec is the engine's defaulted spec, so TTL is set.
		bound := max(2*spec.Workload.Period, spec.Cache.TTL)
		if h, ok := histogram(s.Snapshot, "core.cache.served_age_ms"); ok && h.Count > 0 {
			c.expect(h.Max <= float64(bound.Milliseconds()),
				"cache served an answer %.0f ms old, bound %v", h.Max, bound)
		}
	}

	if spec.Audit.Enabled {
		c.expect(s.Audit != nil && s.Audit.Checks > 0, "auditor enabled but checked nothing")
		if s.Audit != nil && len(s.Audit.Violations) > 0 {
			c.expect(false, "%d audit violations, first: %v", len(s.Audit.Violations), s.Audit.Violations[0])
		}
	}
	return c.err()
}

// phoneID matches the fleet engine's phone naming.
func phoneID(i int) string { return fmt.Sprintf("p%05d", i) }

// relClose reports whether two sums of the same terms agree up to float
// rounding.
func relClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*max(a, b, 1)
}
