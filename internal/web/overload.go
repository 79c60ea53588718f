package web

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/semcache"
)

// statusClientClosedRequest is nginx's 499: the client went away before
// the answer was ready. It keeps disconnects out of the 5xx error budget.
const statusClientClosedRequest = 499

// maxTenantCounters bounds the per-tenant stats map; traffic from tenants
// beyond it is folded into one overflow bucket so an open endpoint cannot
// grow server memory without bound.
const maxTenantCounters = 1024

// overflowTenant collects counters once maxTenantCounters is reached.
const overflowTenant = "(other)"

// tenantOf identifies the billing tenant for a request: the X-Tenant
// header when present (a fronting proxy's authenticated principal), else
// the session ID.
func tenantOf(r *http.Request, session string) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return session
}

// writeShed refuses a query with a load-derived Retry-After hint: the
// larger of the configured floor, the admission queue's predicted wait,
// and the dataset breaker's remaining cooldown.
func (s *Server) writeShed(w http.ResponseWriter, dataset string, status int, err error) {
	ra := s.adm.RetryAfter()
	if o := s.opts.RetryAfter; o > ra {
		ra = o
	}
	if br := s.breakers[dataset]; br != nil {
		if rem := br.CooldownRemaining(); rem > ra {
			ra = rem
		}
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(ra.Seconds()+0.5)))
	writeError(w, status, err)
}

// StartDrain stops admitting queries: every queued admission waiter is
// shed immediately and new queries are refused with 503, while in-flight
// vocalizations keep their slots and finish. Wire it through
// http.Server.RegisterOnShutdown so graceful shutdown does not wait on a
// full queue.
func (s *Server) StartDrain() { s.adm.Drain() }

// tenantCounters holds one tenant's admission outcomes.
type tenantCounters struct {
	served     int64
	cached     int64
	queued     int64
	brownedOut int64
	fallbacks  int64
	clientGone int64
	shed       map[string]int64
}

// servingCounters aggregates admission outcomes per tenant plus the
// ladder-step service counts and the semantic-cache serving paths.
type servingCounters struct {
	mu           sync.Mutex
	tenants      map[string]*tenantCounters
	ladderServed [admission.NumSteps]int64
	// cacheHits / cacheCoalesced count requests answered from the tier-A
	// answer cache; cacheWarm requests planned over a tier-B view.
	cacheHits      int64
	cacheCoalesced int64
	cacheWarm      int64
}

// tenant returns name's counters, folding new tenants into the overflow
// bucket at capacity. Caller holds c.mu.
func (c *servingCounters) tenant(name string) *tenantCounters {
	if c.tenants == nil {
		c.tenants = make(map[string]*tenantCounters)
	}
	t, ok := c.tenants[name]
	if !ok {
		if len(c.tenants) >= maxTenantCounters {
			name = overflowTenant
			if t = c.tenants[name]; t != nil {
				return t
			}
		}
		t = &tenantCounters{shed: make(map[string]int64)}
		c.tenants[name] = t
	}
	return t
}

// served records a successfully answered query.
func (c *servingCounters) served(tenant string, waited bool, step admission.Step, fallback string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenant(tenant)
	t.served++
	if waited {
		t.queued++
	}
	if step > admission.StepFull || fallback != "" {
		t.brownedOut++
	}
	if fallback != "" {
		t.fallbacks++
	}
	c.ladderServed[step]++
}

// cached records a query answered from the semantic answer cache.
func (c *servingCounters) cached(tenant string, oc semcache.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant(tenant).cached++
	if oc == semcache.Coalesced {
		c.cacheCoalesced++
	} else {
		c.cacheHits++
	}
}

// warmServed records a query planned over a tier-B warmed view.
func (c *servingCounters) warmServed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheWarm++
}

// shed records a refused query by reason.
func (c *servingCounters) shed(tenant, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant(tenant).shed[reason]++
}

// clientGone records a request whose client disconnected first.
func (c *servingCounters) clientGone(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant(tenant).clientGone++
}

// TenantServingStats reports one tenant's admission outcomes.
type TenantServingStats struct {
	Tenant string `json:"tenant"`
	// Served counts answered queries; Queued of those waited in the
	// admission queue first.
	Served int64 `json:"served"`
	// Cached counts queries answered from the semantic answer cache
	// (not included in Served: no vocalizer ran).
	Cached int64 `json:"cached,omitempty"`
	Queued int64 `json:"queued,omitempty"`
	// Shed counts refusals by reason ("rate", "queue-full", "deadline",
	// "draining", "brownout").
	Shed map[string]int64 `json:"shed,omitempty"`
	// BrownedOut counts answers served below full quality; Fallbacks of
	// those were rerouted to the prior vocalizer.
	BrownedOut int64 `json:"brownedOut,omitempty"`
	Fallbacks  int64 `json:"fallbacks,omitempty"`
	// ClientGone counts requests whose client disconnected first.
	ClientGone int64 `json:"clientGone,omitempty"`
}

// ServingStats reports the overload-resilience state: live admission
// gauges, the brownout ladder, breaker states, and per-tenant outcomes.
type ServingStats struct {
	InFlight int `json:"inFlight"`
	QueueLen int `json:"queueLen"`
	// Brownout is the ladder snapshot (current step, sliding p99,
	// transition counts).
	Brownout admission.BrownoutSnapshot `json:"brownout"`
	// LadderServed counts answered queries by the ladder step that
	// shaped them.
	LadderServed map[string]int64 `json:"ladderServed,omitempty"`
	// Breakers maps dataset to breaker state ("closed", "open",
	// "half-open").
	Breakers map[string]string `json:"breakers"`
	// Tenants lists per-tenant outcomes sorted by tenant name.
	Tenants []TenantServingStats `json:"tenants,omitempty"`
	// SemCache reports the semantic answer cache, warmed-view cache, and
	// session-pool counters; nil when caching is disabled.
	SemCache *SemCacheStats `json:"semcache,omitempty"`
	// VocalizeLatencyMS reports sliding-window wall-latency quantiles for
	// real vocalizer runs ("p50", "p99"); absent before the first run.
	VocalizeLatencyMS map[string]float64 `json:"vocalizeLatencyMs,omitempty"`
}

// servingStats snapshots the overload-resilience state.
func (s *Server) servingStats() ServingStats {
	out := ServingStats{
		InFlight: s.adm.InFlight(),
		QueueLen: s.adm.QueueLen(),
		Brownout: s.brown.Snapshot(),
		Breakers: make(map[string]string, len(s.breakers)),
		SemCache: s.semCacheStats(),
	}
	if p50, p99, _, ok := s.latw.quantiles(); ok {
		out.VocalizeLatencyMS = map[string]float64{
			"p50": float64(p50) / float64(time.Millisecond),
			"p99": float64(p99) / float64(time.Millisecond),
		}
	}
	for name, br := range s.breakers {
		out.Breakers[name] = br.State().String()
	}
	c := &s.serving
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.ladderServed {
		if n > 0 {
			if out.LadderServed == nil {
				out.LadderServed = make(map[string]int64, admission.NumSteps)
			}
			out.LadderServed[admission.Step(i).String()] = n
		}
	}
	for name, t := range c.tenants {
		ts := TenantServingStats{
			Tenant:     name,
			Served:     t.served,
			Cached:     t.cached,
			Queued:     t.queued,
			BrownedOut: t.brownedOut,
			Fallbacks:  t.fallbacks,
			ClientGone: t.clientGone,
		}
		if len(t.shed) > 0 {
			ts.Shed = make(map[string]int64, len(t.shed))
			for reason, n := range t.shed {
				ts.Shed[reason] = n
			}
		}
		out.Tenants = append(out.Tenants, ts)
	}
	sort.Slice(out.Tenants, func(i, j int) bool {
		return out.Tenants[i].Tenant < out.Tenants[j].Tenant
	})
	return out
}

// RetryAfterHint exposes the load-derived Retry-After for operational
// probes (loadgen validates hints grow with queue depth).
func (s *Server) RetryAfterHint() time.Duration {
	ra := s.adm.RetryAfter()
	if o := s.opts.RetryAfter; o > ra {
		ra = o
	}
	return ra
}
