// Package web exposes the voice-OLAP system over HTTP, mirroring the
// paper's crowd-study interface: clients submit keyword commands per
// session, choose between the holistic vocalizer and the prior baseline
// for every single query, and receive the speech text (a browser would
// hand it to a TTS API). Queries are logged server-side as in the study.
//
// The server is hardened for sustained multi-tenant traffic: every
// request runs under a deadline (vocalizers degrade rather than hang),
// panics become 500s, the query log is a fixed-capacity ring, and idle
// sessions are evicted by TTL and LRU. Overload is governed by the
// internal/admission layer: per-tenant token buckets and a weighted-fair
// bounded queue in front of the vocalizers (429/503 + load-derived
// Retry-After beyond them), a brownout ladder that trades answer quality
// for latency headroom, and per-dataset circuit breakers that trip the
// holistic planner to the prior baseline after consecutive deadline
// blowouts.
package web

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/speech"
	"repro/internal/voice"
)

// DatasetInfo registers one dataset with its spoken measure.
type DatasetInfo struct {
	// Name is the public dataset identifier ("flights", "salaries").
	Name string
	// Dataset is the bound data.
	Dataset *olap.Dataset
	// MeasureCol is the measure column vocalized by default.
	MeasureCol string
	// MeasureDesc is its spoken description.
	MeasureDesc string
	// Format renders measure values.
	Format speech.ValueFormat
}

// QueryLogEntry records one vocalized query, as the paper's server did.
type QueryLogEntry struct {
	Time      time.Time `json:"time"`
	Session   string    `json:"session"`
	Dataset   string    `json:"dataset"`
	Input     string    `json:"input"`
	Method    string    `json:"method"`
	Speech    string    `json:"speech"`
	LatencyMS float64   `json:"latencyMs"`
	// Degraded marks answers cut short by the request deadline.
	Degraded bool `json:"degraded,omitempty"`
	// ServedBy is the vocalizer that actually answered; it differs from
	// Method when the brownout ladder or a circuit breaker forced the
	// prior fallback, and is "cache" for replayed answers.
	ServedBy string `json:"servedBy,omitempty"`
	// Origin names the vocalizer that originally produced a cache-served
	// speech.
	Origin string `json:"origin,omitempty"`
	// Cache classifies the semantic-cache path ("hit", "coalesced",
	// "warm"); empty for cold answers.
	Cache string `json:"cache,omitempty"`
	// DataEpoch is the dataset epoch the answer was computed against.
	DataEpoch int64 `json:"dataEpoch"`
	// Stale marks answers whose epoch advanced before the reply was
	// written (rows were ingested mid-answer).
	Stale bool `json:"stale,omitempty"`
}

// Options tunes the server's robustness knobs. The zero value selects the
// defaults noted per field.
type Options struct {
	// RequestTimeout bounds each request via its context (default 30s;
	// negative disables). Vocalizers degrade at the deadline, so the
	// response still carries a partial answer.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the /api/query request body (default 64 KiB).
	MaxBodyBytes int64
	// MaxConcurrent bounds concurrent vocalizations; requests beyond it
	// (and beyond QueueDepth) receive 503 with a Retry-After hint
	// (default 32).
	MaxConcurrent int
	// RetryAfter is the floor of the Retry-After hint attached to shed
	// responses; the hint grows with the admission queue's predicted wait
	// and any open breaker's cooldown (default 1s).
	RetryAfter time.Duration
	// QueueDepth bounds requests waiting in the weighted-fair admission
	// queue once every vocalization slot is busy. 0 (the default) sheds
	// immediately at saturation, matching the pre-admission behavior.
	QueueDepth int
	// TenantRate is the per-tenant token-bucket refill rate in requests
	// per second; 0 disables per-tenant rate limiting (the default).
	// Over-rate requests receive 429.
	TenantRate float64
	// TenantBurst is the per-tenant bucket capacity (default: one second
	// of TenantRate, at least 1).
	TenantBurst int
	// TenantWeights gives named tenants a larger fair share of admission
	// grants under contention (default weight 1).
	TenantWeights map[string]int
	// BrownoutTarget is the p99 vocalize-latency goal for the brownout
	// ladder; when the sliding p99 overshoots it the server steps down
	// through reduced planner budgets, the prior baseline, and finally
	// sheds. 0 disables the ladder (the default).
	BrownoutTarget time.Duration
	// BrownoutWindow is the sliding sample count the p99 is computed
	// over (default 64).
	BrownoutWindow int
	// BrownoutHold is the minimum dwell time between ladder steps
	// (default 2s).
	BrownoutHold time.Duration
	// BreakerThreshold trips a dataset's circuit breaker — holistic
	// requests fall back to the prior baseline — after this many
	// consecutive deadline blowouts. 0 disables breakers (the default).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe (default 10s).
	BreakerCooldown time.Duration
	// LogCap is the query-log ring capacity; the oldest entries are
	// dropped beyond it (default 10000).
	LogCap int
	// MaxSessions caps live sessions; the least recently used is evicted
	// beyond it (default 1024).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 1h).
	SessionTTL time.Duration
	// SemCacheEntries caps the tier-A semantic answer cache: finished
	// full-quality speeches memoized by (dataset epoch, canonical query)
	// and replayed bit-identically for equivalent queries (default 1024;
	// negative disables the semantic cache entirely).
	SemCacheEntries int
	// SemCacheViews caps the tier-B cache of warmed sample views, which
	// let equivalent queries skip scan/sample cost even after their
	// tier-A entry is evicted (default 64; negative disables tier B).
	SemCacheViews int
	// PoolSize is the per-dataset warm session pool: pristine cloned nlq
	// sessions checked out on first use so no new voice session pays
	// cold-start (default 4; negative disables pooling).
	PoolSize int
	// Logf receives operational messages such as panic stacks (default
	// log.Printf).
	Logf func(format string, args ...any)
}

// normalize fills unset options with their defaults.
func (o Options) normalize() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 10
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 32
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.LogCap <= 0 {
		o.LogCap = 10000
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = time.Hour
	}
	if o.SemCacheEntries == 0 {
		o.SemCacheEntries = 1024
	}
	if o.SemCacheViews == 0 {
		o.SemCacheViews = 64
	}
	if o.PoolSize == 0 {
		o.PoolSize = 4
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// errInternal hides internal error details from clients; the real error
// goes to the operational log.
var errInternal = errors.New("internal server error")

// queryLog is a fixed-capacity ring holding the newest entries; the study
// server must survive unbounded query streams with bounded memory.
type queryLog struct {
	cap     int
	entries []QueryLogEntry
	next    int
	dropped int64
}

// add appends e, overwriting the oldest entry once the ring is full.
func (l *queryLog) add(e QueryLogEntry) {
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % l.cap
	l.dropped++
}

// snapshot copies the entries in chronological order.
func (l *queryLog) snapshot() []QueryLogEntry {
	out := make([]QueryLogEntry, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// sessionEntry tracks a session's last use for TTL/LRU eviction.
type sessionEntry struct {
	sess     *nlq.Session
	lastUsed time.Time
}

// Server serves the voice-OLAP API.
type Server struct {
	mu       sync.Mutex
	datasets map[string]*datasetState
	order    []string
	sessions map[string]*sessionEntry
	log      queryLog
	cfg      core.Config
	opts     Options
	// adm bounds and fair-queues concurrent vocalizations.
	adm *admission.Controller
	// brown walks the degradation ladder from vocalize latencies.
	brown *admission.Brownout
	// breakers guards the holistic path per dataset; the map is fixed at
	// construction and read without s.mu.
	breakers map[string]*admission.Breaker
	// serving counts per-tenant admission outcomes for /api/stats.
	serving servingCounters
	// answers is the tier-A semantic cache: finished full-quality
	// speeches keyed by (dataset epoch, vocalizer, canonical query).
	// nil disables semantic caching.
	answers *semcache.Cache[cachedAnswer]
	// views is the tier-B cache of warmed sample views; nil disables
	// warm starts.
	views *semcache.Cache[*sampling.View]
	// viewJobs feeds the background view builder; quit stops it.
	viewJobs  chan viewJob
	quit      chan struct{}
	closeOnce sync.Once
	// ingestBatches / ingestRows count accepted append batches and rows;
	// staleAnswers counts replies flagged stale (epoch moved mid-answer).
	ingestBatches atomic.Int64
	ingestRows    atomic.Int64
	staleAnswers  atomic.Int64
	// latw tracks vocalize wall latencies for /metrics quantiles.
	latw *latencyWindow
	// now is the server-side bookkeeping clock, stubbed in tests.
	now func() time.Time
	// holdVocalize, when non-nil, blocks vocalizations until closed —
	// a test hook for exercising admission control deterministically.
	holdVocalize chan struct{}
	// vocalizeParked, when non-nil, is closed once a request reaches the
	// holdVocalize gate (its command is committed, its epoch captured) —
	// the companion hook that lets a test order events around the hold.
	vocalizeParked chan struct{}
}

// NewServer registers the datasets and returns a server with default
// Options. cfg configures the holistic vocalizer. cfg.Clock is ignored:
// every vocalization runs on its own simulated clock, which makes
// responses immediate (the browser performs actual playback) and keeps
// concurrent answers from shortening each other's planning.
func NewServer(cfg core.Config, infos ...DatasetInfo) (*Server, error) {
	return NewServerWith(cfg, Options{}, infos...)
}

// NewServerWith is NewServer with explicit robustness Options.
func NewServerWith(cfg core.Config, opts Options, infos ...DatasetInfo) (*Server, error) {
	if len(infos) == 0 {
		return nil, errors.New("web: at least one dataset required")
	}
	opts = opts.normalize()
	s := &Server{
		datasets: make(map[string]*datasetState, len(infos)),
		sessions: make(map[string]*sessionEntry),
		log:      queryLog{cap: opts.LogCap},
		cfg:      cfg,
		opts:     opts,
		breakers: make(map[string]*admission.Breaker, len(infos)),
		latw:     newLatencyWindow(512),
		now:      time.Now,
	}
	if opts.SemCacheEntries > 0 {
		s.answers = semcache.New[cachedAnswer](opts.SemCacheEntries)
	}
	if opts.SemCacheViews > 0 {
		s.views = semcache.New[*sampling.View](opts.SemCacheViews)
		s.viewJobs = make(chan viewJob, 16)
		s.quit = make(chan struct{})
		go s.viewBuilder()
	}
	s.adm = admission.NewController(admission.Config{
		Slots:      opts.MaxConcurrent,
		QueueDepth: opts.QueueDepth,
		Rate:       opts.TenantRate,
		Burst:      float64(opts.TenantBurst),
		Weights:    opts.TenantWeights,
	})
	s.brown = admission.NewBrownout(admission.BrownoutConfig{
		Target: opts.BrownoutTarget,
		Window: opts.BrownoutWindow,
		Hold:   opts.BrownoutHold,
	})
	for _, info := range infos {
		if info.Dataset == nil || info.Name == "" {
			return nil, errors.New("web: dataset info incomplete")
		}
		if _, dup := s.datasets[info.Name]; dup {
			return nil, fmt.Errorf("web: duplicate dataset %q", info.Name)
		}
		st, err := newDatasetState(info, opts.PoolSize)
		if err != nil {
			return nil, err
		}
		s.datasets[info.Name] = st
		s.order = append(s.order, info.Name)
		s.breakers[info.Name] = admission.NewBreaker(admission.BreakerConfig{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
		})
	}
	return s, nil
}

// Handler returns the HTTP handler with the recovery and per-request
// timeout middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	mux.HandleFunc("POST /api/query", s.handleQuery)
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("GET /api/log", s.handleLog)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	var h http.Handler = mux
	h = withTimeout(h, s.opts.RequestTimeout)
	h = withRecovery(h, s.opts.Logf)
	return h
}

// handleIndex serves the minimal study page.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// handleDatasets lists the registered datasets.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type dataset struct {
		Name    string `json:"name"`
		Rows    int    `json:"rows"`
		Measure string `json:"measure"`
		// Epoch counts data changes (reloads and ingest batches); Live
		// marks datasets that have accepted streaming appends.
		Epoch int64 `json:"epoch"`
		Live  bool  `json:"live,omitempty"`
	}
	s.mu.Lock()
	out := make([]dataset, 0, len(s.order))
	for _, name := range s.order {
		st := s.datasets[name]
		out = append(out, dataset{
			Name:    name,
			Rows:    st.info.Dataset.Table().NumRows(),
			Measure: st.info.MeasureDesc,
			Epoch:   st.epoch,
			Live:    st.live != nil,
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// queryRequest is the /api/query payload.
type queryRequest struct {
	// Session identifies the exploration session (the study asked for the
	// crowd worker ID).
	Session string `json:"session"`
	// Dataset selects the registered dataset.
	Dataset string `json:"dataset"`
	// Input is the voice or keyboard command.
	Input string `json:"input"`
	// Method selects the vocalizer: "this" (holistic) or "prior".
	Method string `json:"method"`
}

// queryResponse is the /api/query reply.
type queryResponse struct {
	Action    string  `json:"action"`
	Message   string  `json:"message,omitempty"`
	Speech    string  `json:"speech,omitempty"`
	LatencyMS float64 `json:"latencyMs"`
	// Degraded marks an answer cut short by the request deadline: the
	// speech is still grammar-valid but shorter than planned.
	Degraded bool `json:"degraded,omitempty"`
	// Structured carries the grammar decomposition for holistic answers,
	// so clients can render or re-score speeches without re-parsing text.
	Structured *encode.Speech `json:"structured,omitempty"`
	// SSML carries speech markup for TTS engines that accept it.
	SSML string `json:"ssml,omitempty"`
	// ServedBy names the vocalizer that answered ("this" or "prior");
	// it differs from the requested method when the brownout ladder or a
	// breaker forced the prior fallback, and is "cache" when the speech
	// was replayed from the semantic answer cache. Clients validating
	// grammar must check this field (and Origin for cache-served
	// answers), not the method they asked for.
	ServedBy string `json:"servedBy,omitempty"`
	// Origin names the vocalizer that originally produced a cache-served
	// speech ("this" or "prior"); grammar conformance follows Origin when
	// ServedBy is "cache".
	Origin string `json:"origin,omitempty"`
	// Cache classifies the semantic-cache path: "hit" for a replayed
	// answer, "coalesced" when this request shared another request's
	// in-flight computation of the same canonical query, "warm" when the
	// planner started from a prebuilt tier-B sample view. Empty for cold
	// answers.
	Cache string `json:"cache,omitempty"`
	// Fallback explains a ServedBy/method mismatch: "brownout" or
	// "breaker".
	Fallback string `json:"fallback,omitempty"`
	// DataEpoch is the dataset epoch the answer's data snapshot belonged
	// to. Streaming clients compare it with ingest acknowledgements: any
	// answer with DataEpoch at or above the client's last acked epoch
	// provably includes those appends.
	DataEpoch int64 `json:"dataEpoch"`
	// TableRows is the committed row count of that snapshot.
	TableRows int64 `json:"tableRows,omitempty"`
	// Stale flags an answer computed against an epoch that was already
	// superseded by an ingest when the reply was written. The speech
	// itself is unchanged and grammar-valid (degrade, don't error);
	// StaleNote carries the spoken caveat.
	Stale bool `json:"stale,omitempty"`
	// StaleNote is the spoken freshness caveat (speech.StaleNote) set
	// exactly when Stale is true.
	StaleNote string `json:"staleNote,omitempty"`
}

// methodName normalizes the requested vocalization method; ok is false
// for methods outside the study's menu (rejected with 400 so client typos
// cannot skew the study logs).
func methodName(m string) (string, bool) {
	switch m {
	case "", "this":
		return "this", true
	case "prior":
		return "prior", true
	default:
		return "", false
	}
}

// session returns the live session for key, creating it on first use (from
// the dataset's warm pool) and evicting expired and least-recently-used
// sessions. Caller holds s.mu.
func (s *Server) session(key string, st *datasetState) (*nlq.Session, error) {
	now := s.now()
	// TTL sweep: drop sessions idle past the deadline.
	for k, e := range s.sessions {
		if now.Sub(e.lastUsed) > s.opts.SessionTTL {
			delete(s.sessions, k)
		}
	}
	if e, ok := s.sessions[key]; ok {
		e.lastUsed = now
		return e.sess, nil
	}
	sess, err := st.newSession()
	if err != nil {
		return nil, err
	}
	// LRU eviction: make room before inserting.
	for len(s.sessions) >= s.opts.MaxSessions {
		oldestKey := ""
		var oldest time.Time
		for k, e := range s.sessions {
			if oldestKey == "" || e.lastUsed.Before(oldest) {
				oldestKey, oldest = k, e.lastUsed
			}
		}
		delete(s.sessions, oldestKey)
	}
	s.sessions[key] = &sessionEntry{sess: sess, lastUsed: now}
	return sess, nil
}

// handleQuery parses the command in the caller's session and vocalizes
// the resulting query with the chosen method.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, errors.New("session required"))
		return
	}
	method, ok := methodName(req.Method)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown method %q (want \"this\" or \"prior\")", req.Method))
		return
	}
	s.mu.Lock()
	st, ok := s.datasets[req.Dataset]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	key := req.Session + "\x00" + req.Dataset
	sess, err := s.session(key, st)
	if err != nil {
		s.mu.Unlock()
		s.opts.Logf("web: session init: %v", err)
		writeError(w, http.StatusInternalServerError, errInternal)
		return
	}
	// Stage the parse on a clone: admission may still shed this request,
	// and a shed must be side-effect free so a client retry does not
	// double-apply the command ("drill down" twice deep, "back" twice up).
	staged := sess.Clone()
	s.mu.Unlock()
	resp, err := staged.Parse(req.Input)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	if !resp.IsQuery {
		// Non-query commands (help, summaries, navigation feedback) never
		// vocalize, so they bypass admission; commit on the live session.
		s.mu.Lock()
		live, err := sess.Parse(req.Input)
		s.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{Action: live.Action, Message: live.Message})
		return
	}

	tenant := tenantOf(r, req.Session)
	// Semantic fast path: an equivalent query already answered this epoch
	// replays its speech before admission — even while shedding.
	if s.tryServeCached(w, req, sess, st, method, tenant) {
		return
	}
	// The ladder's last rung refuses queries before they touch the queue.
	if s.brown.Step() == admission.StepShed {
		s.serving.shed(tenant, "brownout")
		s.writeShed(w, req.Dataset, http.StatusServiceUnavailable,
			errors.New("server browned out, retry shortly"))
		return
	}
	res := s.adm.Acquire(r.Context(), tenant)
	if res.Ticket == nil {
		switch res.Shed {
		case admission.ShedCanceled:
			if r.Context().Err() == context.DeadlineExceeded {
				writeError(w, http.StatusRequestTimeout, errors.New("request deadline exceeded while queued"))
				break
			}
			// The client hung up while queued; nobody reads this reply,
			// but the status keeps the log honest (499, not 5xx).
			s.serving.clientGone(tenant)
			writeError(w, statusClientClosedRequest, errors.New("client closed request"))
		case admission.ShedRate:
			s.serving.shed(tenant, res.Shed.String())
			s.writeShed(w, req.Dataset, http.StatusTooManyRequests,
				errors.New("tenant rate limit exceeded, retry shortly"))
		default:
			s.serving.shed(tenant, res.Shed.String())
			s.writeShed(w, req.Dataset, http.StatusServiceUnavailable,
				errors.New("server saturated, retry shortly"))
		}
		return
	}
	defer res.Ticket.Release()

	// Admitted: commit the staged command on the live session. The parse
	// re-runs under the lock so concurrent commits serialize; a racing
	// command may have changed the session since the dry run, so the
	// committed response is authoritative. The dataset info is captured
	// under the same lock hold as the epoch: reload and ingest swap
	// st.info while holding s.mu, so reading it later (inside the compute
	// closure) would race and could pair an old epoch with new data.
	s.mu.Lock()
	resp, err = sess.Parse(req.Input)
	var q olap.Query
	if err == nil {
		q = sess.Query()
	}
	epoch := st.epoch
	info := st.info
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if !resp.IsQuery {
		writeJSON(w, http.StatusOK, queryResponse{Action: resp.Action, Message: resp.Message})
		return
	}

	if s.holdVocalize != nil {
		if s.vocalizeParked != nil {
			close(s.vocalizeParked)
			s.vocalizeParked = nil
		}
		<-s.holdVocalize
	}
	step := s.brown.Step()
	if step == admission.StepShed {
		// The ladder topped out while we queued; we already hold a slot,
		// so serve the cheap fallback instead of wasting the wait.
		step = admission.StepPrior
	}
	servedBy, fallback := method, ""
	if method == "this" {
		if step >= admission.StepPrior {
			servedBy, fallback = "prior", "brownout"
		} else if !s.breakers[req.Dataset].Allow() {
			servedBy, fallback = "prior", "breaker"
		}
	}
	// Every vocalizer runs on the canonical query: key equality then
	// implies identical planner input, which is what makes replaying a
	// cached speech sound.
	nq := semcache.Normalize(q)
	wallStart := time.Now()
	ans, outcome, err := s.answerQuery(r.Context(), info, req.Dataset, epoch, nq, method, servedBy, step, fallback)
	if err != nil {
		if errors.Is(err, context.Canceled) || r.Context().Err() == context.Canceled {
			s.serving.clientGone(tenant)
			writeError(w, statusClientClosedRequest, errors.New("client closed request"))
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusRequestTimeout, errors.New("request deadline exceeded"))
			return
		}
		s.opts.Logf("web: vocalize: %v", err)
		writeError(w, http.StatusInternalServerError, errInternal)
		return
	}
	servedAs, origin, cacheTag := servedBy, "", ""
	latencyMS := float64(ans.voc.latency) / float64(time.Millisecond)
	switch outcome {
	case semcache.Hit, semcache.Coalesced:
		// The stored answer is always clean and full-quality, whatever
		// ladder step this request happened to arrive at.
		servedAs, origin, cacheTag = "cache", ans.origin, outcome.String()
		fallback = ""
		latencyMS = float64(time.Since(wallStart)) / float64(time.Millisecond)
		s.serving.cached(tenant, outcome)
	default:
		s.serving.served(tenant, res.Waited > 0, step, fallback)
		if ans.warm {
			cacheTag = "warm"
			s.serving.warmServed()
		}
	}
	s.respondSpeech(w, req, method, resp, ans.voc, servedAs, origin, cacheTag, fallback, latencyMS, st, epoch)
}

// respondSpeech writes the speech response and appends the query-log
// entry — shared by the cold path and the cache fast path. dataEpoch is
// the dataset epoch the answer was computed against; if the dataset has
// moved past it by the time the reply is written, the answer is flagged
// stale (degrade, don't error) with the spoken caveat attached.
func (s *Server) respondSpeech(w http.ResponseWriter, req queryRequest, method string, resp nlq.Response, voc vocOut, servedBy, origin, cacheTag, fallback string, latencyMS float64, st *datasetState, dataEpoch int64) {
	out := queryResponse{
		Action:    resp.Action,
		Message:   resp.Message,
		Speech:    voc.text,
		LatencyMS: latencyMS,
		Degraded:  voc.degraded,
		ServedBy:  servedBy,
		Origin:    origin,
		Cache:     cacheTag,
		Fallback:  fallback,
		DataEpoch: dataEpoch,
		TableRows: voc.tableRows,
	}
	if voc.structured != nil {
		enc := encode.EncodeSpeech(voc.structured)
		out.Structured = &enc
		out.SSML = voc.structured.SSML(speech.DefaultSSMLOptions())
	}
	s.mu.Lock()
	if st.epoch != dataEpoch {
		out.Stale = true
		out.StaleNote = speech.StaleNote
	}
	s.log.add(QueryLogEntry{
		Time:      s.now(),
		Session:   req.Session,
		Dataset:   req.Dataset,
		Input:     req.Input,
		Method:    method,
		Speech:    out.Speech,
		LatencyMS: latencyMS,
		Degraded:  voc.degraded,
		ServedBy:  servedBy,
		Origin:    origin,
		Cache:     cacheTag,
		DataEpoch: dataEpoch,
		Stale:     out.Stale,
	})
	s.mu.Unlock()
	if out.Stale {
		s.staleAnswers.Add(1)
	}
	writeJSON(w, http.StatusOK, out)
}

// vocOut is one vocalizer run's result.
type vocOut struct {
	text string
	// structured is non-nil for the holistic grammar only.
	structured *speech.Speech
	latency    time.Duration
	degraded   bool
	// reason explains a degraded answer (the context error text).
	reason string
	// tableRows is the committed row count of the data snapshot the
	// answer was computed over.
	tableRows int64
}

// vocalize runs the chosen vocalizer on the query under ctx. At
// StepReduced the holistic planner runs with quartered budgets: cheaper
// and rougher answers, same grammar. A non-nil view warm-starts the
// holistic planner from the materialized sample instead of scanning.
func (s *Server) vocalize(ctx context.Context, info DatasetInfo, q olap.Query, method string, step admission.Step, view *sampling.View) (vocOut, error) {
	if method == "prior" {
		out, err := baseline.NewPrior(info.Dataset, q, baseline.Config{
			Format:      info.Format,
			MergeValues: true,
		}).VocalizeContext(ctx)
		if err != nil {
			return vocOut{}, err
		}
		return vocOut{
			text:      out.Text,
			latency:   out.Latency,
			degraded:  out.Truncated,
			tableRows: int64(info.Dataset.Table().NumRows()),
		}, nil
	}
	cfg := s.cfg
	cfg.Format = info.Format
	// Every vocalization plans on its own simulated clock. A clock shared
	// across requests lets concurrent answers advance each other's
	// playback and cut planning short, so one question would get a
	// different speech under load than alone.
	cfg.Clock = voice.NewSimClock()
	if cfg.MaxRoundsPerSentence == 0 {
		cfg.MaxRoundsPerSentence = 500
	}
	if cfg.MaxTreeNodes == 0 {
		cfg.MaxTreeNodes = 50000
	}
	if step == admission.StepReduced {
		cfg.MaxRoundsPerSentence = reducedBudget(cfg.MaxRoundsPerSentence, 32)
		cfg.MaxTreeNodes = reducedBudget(cfg.MaxTreeNodes, 1024)
	}
	if view != nil {
		out, err := core.NewWarm(info.Dataset, view, cfg).VocalizeContext(ctx)
		if err == nil {
			return vocOut{
				text:       out.Text(),
				structured: out.Speech,
				latency:    out.Latency,
				degraded:   out.Degraded,
				reason:     out.DegradeReason,
				tableRows:  out.TableRows,
			}, nil
		}
		// A view the warm vocalizer rejects (uncertainty mode turned on
		// since the build, foreign dataset) falls back to the cold path.
	}
	out, err := core.NewHolistic(info.Dataset, q, cfg).VocalizeContext(ctx)
	if err != nil {
		return vocOut{}, err
	}
	return vocOut{
		text:       out.Text(),
		structured: out.Speech,
		latency:    out.Latency,
		degraded:   out.Degraded,
		reason:     out.DegradeReason,
		tableRows:  out.TableRows,
	}, nil
}

// reducedBudget quarters a planner budget with a floor.
func reducedBudget(v, floor int) int {
	if v /= 4; v < floor {
		v = floor
	}
	return v
}

// handleLog returns the query log (newest LogCap entries).
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := s.log.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already out; nothing sensible left to do.
		return
	}
}

// writeError writes a JSON error payload.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// indexHTML is the minimal single-page study interface. Speech synthesis
// uses the browser's speechSynthesis API, standing in for the paper's
// ResponsiveVoiceJS integration.
const indexHTML = `<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>Voice-Based OLAP</title></head>
<body>
<h1>Voice-Based OLAP</h1>
<p>Type a command (say "help" for keywords). Results are spoken aloud.</p>
<select id="dataset"></select>
<select id="method">
  <option value="this">This approach (holistic)</option>
  <option value="prior">Prior vocalization</option>
</select>
<input id="input" size="60" placeholder="how does cancellation depend on region and season">
<button onclick="ask()">Ask</button>
<pre id="out"></pre>
<script>
const session = "web-" + Math.random().toString(36).slice(2);
fetch("/api/datasets").then(r => r.json()).then(ds => {
  const sel = document.getElementById("dataset");
  ds.forEach(d => { const o = document.createElement("option"); o.value = d.name; o.textContent = d.name + " (" + d.measure + ")"; sel.appendChild(o); });
});
async function ask() {
  const body = {
    session: session,
    dataset: document.getElementById("dataset").value,
    input: document.getElementById("input").value,
    method: document.getElementById("method").value,
  };
  const r = await fetch("/api/query", {method: "POST", headers: {"Content-Type": "application/json"}, body: JSON.stringify(body)});
  const j = await r.json();
  const text = j.error || j.speech || j.message || "";
  document.getElementById("out").textContent = text + (j.speech ? "\n\n[latency " + j.latencyMs.toFixed(1) + " ms]" : "");
  if (text && window.speechSynthesis) {
    window.speechSynthesis.speak(new SpeechSynthesisUtterance(text));
  }
}
</script>
</body>
</html>
`
