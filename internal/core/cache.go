package core

import (
	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/query"
)

// This file implements the answer cache of the shared provisioning plane:
// before assigning a mechanism, ProcessCxtQuery consults the device
// repository and, when stored items satisfy the query's type/WHERE/FRESHNESS
// clauses, serves the query from the cache with zero provider work. Periodic
// queries receive EVERY-period refreshes while the cache stays fresh and are
// transparently promoted to a live provisioning mechanism when it goes
// stale. The cache is opt-in (WithAnswerCache); staleness is always bounded
// by the query's FRESHNESS clause or the repository's per-type TTL — a
// query with neither bound never hits the cache.

// cacheEligible reports whether the query may be served from the answer
// cache at all. Event queries need live evaluation; entity/region queries
// target a specific remote party, which stored items cannot attest to.
func (f *Factory) cacheEligible(q *query.Query) bool {
	if q.Event != nil {
		return false
	}
	switch q.From.Kind {
	case query.SourceEntity, query.SourceRegion:
		return false
	}
	// Staleness must be bounded: by the FRESHNESS clause or a per-type TTL.
	return q.Freshness > 0 || f.dev.Repo.TTLFor(q.Select) > 0
}

// cacheSourceCompatible reports whether a stored item could have been
// produced by the query's FROM clause, so a pinned mechanism never receives
// context from a different kind of source.
func cacheSourceCompatible(q *query.Query, it cxt.Item) bool {
	switch q.From.Kind {
	case query.SourceIntSensor:
		return it.Source.Kind == cxt.SourceSensor || it.Source.Kind == 0
	case query.SourceExtInfra:
		return it.Source.Kind == cxt.SourceInfrastructure
	case query.SourceAdHoc:
		return it.Source.Kind == cxt.SourceAdHocNode
	default: // auto: any source satisfies maximum transparency
		return true
	}
}

// cacheLookup returns the newest repository item satisfying the query's
// type, FROM, WHERE and FRESHNESS clauses (bounded further by the type's
// TTL), if any.
func (f *Factory) cacheLookup(q *query.Query) (cxt.Item, bool) {
	now := f.clock.Now()
	return f.dev.Repo.FirstServable(q.Select, q.Freshness, func(it cxt.Item) bool {
		return cacheSourceCompatible(q, it) && q.Matches(it, now)
	})
}

// cacheLookupRelaxed is cacheLookup with the FRESHNESS clause relaxed:
// staleness is bounded only by the type's TTL and item expiry. The QoS
// plane uses it to serve degraded queries stale answers a strict lookup
// would refuse.
func (f *Factory) cacheLookupRelaxed(q *query.Query) (cxt.Item, bool) {
	now := f.clock.Now()
	return f.dev.Repo.FirstServable(q.Select, 0, func(it cxt.Item) bool {
		return cacheSourceCompatible(q, it) && !it.Expired(now) && query.EvalWhere(q.Where, it.Meta)
	})
}

// tryServeFromCache attempts to register aq as cache-served. It runs after
// the query's root span is open and before any facade submission; returning
// true means the query is live on MechanismCache and the first answer is
// already scheduled.
func (f *Factory) tryServeFromCache(aq *activeQuery) bool {
	if !f.cacheEnabled || !f.cacheEligible(aq.q) {
		return false
	}
	sp := aq.span.Child("cache.lookup")
	sp.SetAttr("type", string(aq.q.Select))
	it, ok := f.cacheLookup(aq.q)
	if !ok {
		sp.SetAttr("hit", "false")
		sp.End()
		f.instr.cacheMisses.Inc()
		return false
	}
	sp.SetAttr("hit", "true")
	sp.End()
	hit := aq.span.Child("cache.hit")
	hit.SetAttr("age", it.Age(f.clock.Now()).String())
	hit.End()

	id := aq.id
	aq.mech = MechanismCache
	aq.span.SetAttr("mech", MechanismCache.String())
	f.mu.Lock()
	f.queries[id] = aq
	if aq.q.Duration.Time > 0 {
		aq.expiry = f.clock.After(aq.q.Duration.Time, func() { f.finishQuery(id, metrics.EventExpired) })
	}
	f.mu.Unlock()
	f.auditStarted(aq)
	if aq.expiry != nil {
		f.auditTimerArmed(id, "expiry")
	}
	f.instr.assigned[MechanismCache].Inc()
	f.instr.active.Add(1)
	f.instr.event(f.clock.Now(), id, metrics.EventAssigned, MechanismCache.String(), "")
	// The first answer is delivered asynchronously, like a provider's, so
	// the Subscription handle exists before the client callback runs.
	f.clock.After(0, func() { f.cacheDeliver(id, true) })
	return true
}

// cacheDeliver serves one answer from the repository to a cache-served
// query: the initial answer (first) or an EVERY-period refresh. A lookup
// miss promotes the query to a live mechanism instead.
func (f *Factory) cacheDeliver(queryID string, first bool) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	q := aq.q
	degraded := aq.degraded
	f.mu.Unlock()

	var it cxt.Item
	var hit bool
	if degraded {
		// Degraded queries accept staleness up to the type's TTL: that is
		// the point of degrading.
		it, hit = f.cacheLookupRelaxed(q)
	} else {
		it, hit = f.cacheLookup(q)
	}
	if !hit {
		if degraded {
			// A degraded query never promotes back to live provisioning —
			// it was degraded to shed exactly that load.
			aq.client.InformError("contory: query " + queryID +
				": degraded to stale cache but no servable item remains")
			f.finishQuery(queryID, metrics.EventCancelled)
			return
		}
		f.promoteFromCache(queryID, "cache stale")
		return
	}

	f.mu.Lock()
	if cur, still := f.queries[queryID]; !still || cur != aq || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	aq.delivered++
	aq.cacheHits++
	client := aq.client
	firstItem := aq.delivered == 1
	submitted := aq.submitted
	exhausted := q.Duration.IsSamples() && aq.delivered >= q.Duration.Samples
	f.mu.Unlock()

	now := f.clock.Now()
	f.instr.delivered.Inc()
	f.instr.cacheHits.Inc()
	f.audit.ItemDelivered(now, string(f.dev.ID), queryID, true)
	if !first {
		f.instr.cacheRefreshes.Inc()
	}
	f.instr.observeServedAge(it.Age(now))
	f.instr.event(now, queryID, metrics.EventDelivered, MechanismCache.String(), string(it.Type))
	if firstItem {
		f.instr.observeFirstItem(MechanismCache, now.Sub(submitted))
		aq.span.MarkFirstItem()
	}
	// The item came from the repository, so it is not re-stored and needs no
	// access-control re-admission: it was admitted when originally delivered.
	client.ReceiveCxtItem(it)

	switch {
	case exhausted:
		f.finishQuery(queryID, metrics.EventExpired)
	case q.Every <= 0:
		// On-demand: one answer, then done (matching provider semantics).
		f.finishQuery(queryID, metrics.EventExpired)
	case first:
		// Periodic: arm the EVERY-period refresh ticker.
		f.mu.Lock()
		if cur, still := f.queries[queryID]; still && cur == aq &&
			aq.mech == MechanismCache && aq.cacheTick == nil {
			aq.cacheTick = f.clock.Every(q.Every, func() { f.cacheDeliver(queryID, false) })
			f.auditTimerArmed(queryID, "cacheTick")
		}
		f.mu.Unlock()
	}
}

// promoteFromCache moves a cache-served query onto a live provisioning
// mechanism because the cache can no longer answer it. Promotion walks the
// query's mechanism preferences exactly like initial assignment; if none is
// available the query fails like an unassignable submission.
func (f *Factory) promoteFromCache(queryID, reason string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	if aq.cacheTick != nil {
		aq.cacheTick.Stop()
		aq.cacheTick = nil
		f.auditTimerStopped(queryID, "cacheTick")
	}
	mergeOn := f.mergeEnabled
	prefs := aq.prefs
	f.mu.Unlock()

	for _, mech := range prefs {
		if !f.mechanismHealthy(mech, aq.q) {
			continue
		}
		if err := f.facades[mech].submit(queryID, aq.q, mergeOn, aq.span); err != nil {
			continue
		}
		f.mu.Lock()
		if cur, still := f.queries[queryID]; !still || cur != aq {
			// Cancelled inside a synchronous delivery from the new provider.
			f.mu.Unlock()
			f.facades[mech].Cancel(queryID)
			return
		}
		aq.mech = mech
		f.mu.Unlock()
		f.instr.cachePromotions.Inc()
		f.instr.assigned[mech].Inc()
		pr := aq.span.Child("cache.promote")
		pr.SetAttr("to", mech.String())
		pr.SetAttr("reason", reason)
		pr.End()
		f.instr.event(f.clock.Now(), queryID, metrics.EventAssigned, mech.String(),
			"promoted from cache: "+reason)
		return
	}
	aq.client.InformError("contory: query " + queryID +
		": answer cache went stale and no provisioning mechanism is available")
	f.finishQuery(queryID, metrics.EventCancelled)
}
