package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/baseline"
	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/mcts"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; with on unset it records nothing, which
// is the untraced replay the overhead is measured against.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	req    int64
	stack  []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.origin))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span of accumulated duration d under the current
// span: the split's interleaved per-round calls are summed into one span
// per phase instead of thousands of tiny ones.
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := int64(start.Sub(t.origin))
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: s, End: s + int64(d)})
}

// replayCacheEntry is one tier-A entry of the replay's own cache.
type replayCacheEntry struct {
	sp   *speech.Speech
	text string
}

// replayer re-executes the measured requests, in the order the server
// answered them, through the layers' public entry points — the calls
// web.Server makes, with the server's configuration.
type replayer struct {
	tr      *tracer
	current *olap.Dataset
	// data applies the acknowledged ingest batches in epoch order.
	data     *epochData
	epoch    int64
	proto    *nlq.Session
	sessions map[string]*nlq.Session
	answers  *semcache.Cache[replayCacheEntry]
	views    *semcache.Cache[*sampling.View]
	adm      *admission.Controller

	// hits are the requests the replay answered from its tier-A cache.
	hits map[int64]bool
	// Counters of the traced pass.
	parses, answersN int
	holistic         []holisticSplit
	priors           []priorSplit
	// mismatched are the cold holistic answers whose split did not
	// reproduce the served plan.
	mismatched []splitJob
	// splits are the cold answers to split once the pass is over, so the
	// split's own work never lands inside a replayed request.
	splits []splitJob
}

// splitJob is one cold answer awaiting its split.
type splitJob struct {
	req   int64
	warm  bool
	data  *olap.Dataset
	query olap.Query
	// served and trace are set for holistic answers, nil for prior ones.
	served *core.Output
	trace  *core.Trace
}

func newReplayer(base *olap.Dataset, ingests []*ingestRecord, on bool) *replayer {
	opts := serverOptions()
	return &replayer{
		tr:       &tracer{on: on, origin: time.Now()},
		current:  base,
		data:     newEpochData(base, ingests),
		proto:    newSimulator(base).proto,
		sessions: map[string]*nlq.Session{},
		hits:     map[int64]bool{},
		answers:  semcache.New[replayCacheEntry](opts.SemCacheEntries),
		views:    semcache.New[*sampling.View](opts.SemCacheViews),
		adm:      admission.NewController(admission.Config{Slots: opts.MaxConcurrent}),
	}
}

func (rp *replayer) cacheKey(method, key string) string {
	return fmt.Sprintf("flights\x00%d\x00%s\x00%s", rp.epoch, method, key)
}

// ingestTo applies acknowledged batches until the replay reaches epoch.
func (rp *replayer) ingestTo(epoch int64) {
	for rp.epoch < epoch && rp.data.hasNext() {
		rp.tr.req = rp.data.batches[rp.epoch+1].id
		root := rp.tr.begin("ingest")
		s := rp.tr.begin("table.append")
		if err := rp.data.appendNext(); err != nil {
			panic(err)
		}
		rp.tr.end(s)
		s = rp.tr.begin("olap.dataset")
		d, err := rp.data.snapshot()
		if err != nil {
			panic(err)
		}
		rp.tr.end(s)
		rp.current = d
		rp.epoch++
		s = rp.tr.begin("semcache.purge")
		rp.answers.PurgePrefix("flights\x00")
		rp.views.PurgePrefix("flights\x00")
		rp.tr.end(s)
		rp.tr.end(root)
	}
}

// request replays one query the way web.Server.handleQuery serves it
// and returns the request path's wall time; with split set, cold answers
// are queued for splitting into their layers.
func (rp *replayer) request(r *record, split bool) time.Duration {
	tr := rp.tr
	tr.req = r.id
	ctx := context.Background()
	start := time.Now()
	root := tr.begin("request")
	finish := func() time.Duration {
		tr.end(root)
		return time.Since(start)
	}
	sess, ok := rp.sessions[r.session]
	if !ok {
		s := tr.begin("nlq.clone")
		sess = rp.proto.Clone()
		tr.end(s)
		rp.sessions[r.session] = sess
	}
	parse := func(on *nlq.Session) {
		s := tr.begin("nlq.parse")
		if _, err := on.Parse(r.turn.input); err != nil {
			panic(err)
		}
		tr.end(s)
		rp.parses++
	}
	// Staged parse on a clone, then the cache probe's clone and parse.
	s := tr.begin("nlq.clone")
	staged := sess.Clone()
	tr.end(s)
	parse(staged)
	s = tr.begin("nlq.clone")
	probe := sess.Clone()
	tr.end(s)
	parse(probe)
	s = tr.begin("semcache.key")
	key := semcache.Key(probe.Query())
	tr.end(s)
	s = tr.begin("semcache.get")
	hit, ok := rp.answers.Get(rp.cacheKey(r.turn.method, key))
	tr.end(s)
	rp.answersN++
	if ok {
		rp.hits[r.id] = true
		parse(sess)
		rp.respond(hit.sp)
		return finish()
	}
	s = tr.begin("admission.acquire")
	res := rp.adm.Acquire(ctx, "bench")
	tr.end(s)
	if res.Ticket == nil {
		panic("replay admission shed a request")
	}
	parse(sess)
	s = tr.begin("semcache.key")
	nq := semcache.Normalize(sess.Query())
	tr.end(s)
	if r.turn.method == "prior" {
		s = tr.begin("baseline.prior")
		out, err := baseline.NewPrior(rp.current, nq, baseline.Config{Format: speech.PercentFormat, MergeValues: true}).VocalizeContext(ctx)
		tr.end(s)
		res.Ticket.Release()
		if err != nil {
			panic(err)
		}
		rp.answers.Put(rp.cacheKey("prior", key), replayCacheEntry{text: out.Text})
		if split {
			rp.splits = append(rp.splits, splitJob{req: r.id, warm: r.warmup, data: rp.current, query: nq})
		}
		return finish()
	}
	cfg := recomputeConfig()
	var trace *core.Trace
	if tr.on {
		trace = &core.Trace{}
		cfg.Trace = trace
	}
	s = tr.begin("core.vocalize")
	out, err := core.NewHolistic(rp.current, nq, cfg).VocalizeContext(ctx)
	tr.end(s)
	res.Ticket.Release()
	if err != nil {
		panic(err)
	}
	rp.answers.Put(rp.cacheKey("this", key), replayCacheEntry{sp: out.Speech, text: out.Text()})
	rp.respond(out.Speech)
	wall := finish()
	// Off the request: the background tier-B view build, then the split.
	vk := rp.cacheKey("view", key)
	if !rp.views.Contains(vk) {
		s = tr.begin("sampling.view_build")
		space, err := olap.NewSpace(rp.current, nq)
		if err != nil {
			panic(err)
		}
		view, err := sampling.BuildView(space, 256, rand.New(rand.NewSource(dataSeed+rp.epoch)))
		if err != nil {
			panic(err)
		}
		rp.views.Put(vk, view)
		tr.end(s)
	}
	if split {
		rp.splits = append(rp.splits, splitJob{req: r.id, warm: r.warmup, data: rp.current, query: nq, served: out, trace: trace})
	}
	return wall
}

// runSplits splits the queued cold answers, each under its request id.
func (rp *replayer) runSplits() {
	for _, j := range rp.splits {
		rp.tr.req = j.req
		if j.served == nil {
			rp.splitPrior(j)
		} else {
			rp.splitHolistic(j)
		}
	}
}

// respond encodes a holistic answer as web.Server.respondSpeech does.
func (rp *replayer) respond(sp *speech.Speech) {
	if sp == nil {
		return
	}
	s := rp.tr.begin("encode.speech")
	encode.EncodeSpeech(sp)
	rp.tr.end(s)
	s = rp.tr.begin("speech.ssml")
	sp.SSML(speech.DefaultSSMLOptions())
	rp.tr.end(s)
}

// holisticSplit is one cold holistic answer split into its layers.
type holisticSplit struct {
	vocalize, space, read, model, build, uct time.Duration
	// self is the split's own time outside the layer calls: the planner
	// loop's orchestration (generator, speaker, commits) core performs.
	self                    time.Duration
	buildAlloc              float64
	nodes, samples, rewards int
	rowsRead                int64
}

// splitHolistic re-executes a cold holistic answer phase by phase with
// the public calls core.Holistic makes — olap.NewSpace,
// sampling.Sampler.ReadRows, belief.NewModel, mcts.NewTreeWithCap and
// Tree.SampleBatch — in Algorithm 1's order and with its simulated
// playback, and checks the rounds per sentence against the trace and the
// speech against the served one.
func (rp *replayer) splitHolistic(j splitJob) {
	served, trace := j.served, j.trace
	tr := rp.tr
	cfg := recomputeConfig().Normalize()
	ctx := context.Background()
	var sp holisticSplit
	sp.vocalize = tr.spans[rp.spanOf(j.req, "core.vocalize")].dur()
	sp.rowsRead = served.RowsRead
	root := tr.begin("split.holistic")
	defer tr.end(root)
	splitStart := time.Now()

	t := time.Now()
	space, err := olap.NewSpace(j.data, j.query)
	if err != nil {
		panic(err)
	}
	sp.space = time.Since(t)
	tr.add("olap.space", t, sp.space)

	gen := speech.NewGenerator(space, cfg.Prefs, cfg.Format)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler, err := sampling.NewSamplerWithScanner(space, table.NewRandomScanner(j.data.Table(), rng))
	if err != nil {
		panic(err)
	}
	clock := cfg.Clock.(*voice.SimClock)
	speaker := voice.NewSpeaker(clock, cfg.SpeakingRate)
	speaker.Start(gen.NewPreamble().Text())
	readStart := time.Now()
	read := func(n int) {
		t := time.Now()
		sampler.ReadRows(n)
		sp.read += time.Since(t)
	}
	read(cfg.InitialRows)
	scale, ok := sampler.Cache().GrandEstimate()
	if !ok {
		scale = 0
	}
	t = time.Now()
	sigma := belief.SigmaFromScale(scale)
	if sigma <= 0 {
		sigma = 1
	}
	model, err := belief.NewModel(space, sigma)
	if err != nil {
		panic(err)
	}
	sp.model = time.Since(t)
	tr.add("belief.model", t, sp.model)

	est := sampler.Cache()
	eval := func(s *speech.Speech) (float64, bool) {
		a, ok := est.PickAggregate(rng)
		if !ok {
			return 0, false
		}
		e, ok := est.Estimate(a, rng)
		if !ok {
			return 0, false
		}
		sp.rewards++
		return model.Reward(s, a, e), true
	}
	a0 := readRuntime().allocBytes
	t = time.Now()
	tree, err := mcts.NewTreeWithCap(gen, speech.SpeechScale(scale), eval, rng, cfg.MaxTreeNodes)
	if err != nil {
		panic(err)
	}
	sp.build = time.Since(t)
	sp.buildAlloc = (readRuntime().allocBytes - a0) / (1 << 20)
	sp.nodes = tree.NodeCount()
	tr.add("mcts.build", t, sp.build)

	uctStart := time.Now()
	var windows []int
	for {
		rounds := 0
		for speaker.IsPlaying() || rounds < cfg.MinRounds {
			if cfg.MaxRoundsPerSentence > 0 && rounds >= cfg.MaxRoundsPerSentence {
				break
			}
			read(cfg.RowsPerRound)
			t := time.Now()
			done, _ := tree.SampleBatch(ctx, cfg.SamplesPerRound)
			sp.uct += time.Since(t)
			sp.samples += done
			rounds++
			clock.Advance(cfg.SimRoundCost)
		}
		best := tree.BestChild()
		if best == nil {
			break
		}
		windows = append(windows, rounds)
		tree.Advance(best)
		speaker.Start(tree.Speech(best).LastSentence())
	}
	tr.add("sampling.read", readStart, sp.read)
	tr.add("mcts.uct", uctStart, sp.uct)
	sp.self = time.Since(splitStart) - sp.space - sp.read - sp.model - sp.build - sp.uct

	faithful := tree.Speech(tree.Root()).Text() == served.Text()
	if trace != nil {
		faithful = faithful && len(windows) == len(trace.Sentences) && sp.nodes == trace.TreeNodes
		for i := 0; faithful && i < len(windows); i++ {
			faithful = windows[i] == trace.Sentences[i].Rounds
		}
	}
	if !faithful {
		rp.mismatched = append(rp.mismatched, j)
	}
	rp.holistic = append(rp.holistic, sp)
}

// spanOf returns the index of the newest span of a request with the
// given name.
func (rp *replayer) spanOf(req int64, name string) int {
	for i := len(rp.tr.spans) - 1; i >= 0; i-- {
		if s := rp.tr.spans[i]; s.Req == req && s.Name == name {
			return i
		}
	}
	panic("no span " + name)
}

// priorSplit is one cold prior answer's exact evaluation.
type priorSplit struct {
	prior, space, evaluate time.Duration
	rows                   int
	warm                   bool
}

// splitPrior times the exact evaluation behind a prior answer.
func (rp *replayer) splitPrior(j splitJob) {
	tr := rp.tr
	p := priorSplit{warm: j.warm}
	p.prior = tr.spans[rp.spanOf(j.req, "baseline.prior")].dur()
	root := tr.begin("split.prior")
	defer tr.end(root)
	t := time.Now()
	space, err := olap.NewSpace(j.data, j.query)
	if err != nil {
		panic(err)
	}
	p.space = time.Since(t)
	tr.add("olap.space", t, p.space)
	t = time.Now()
	if _, err := olap.EvaluateSpace(space); err != nil {
		panic(err)
	}
	p.evaluate = time.Since(t)
	tr.add("olap.evaluate", t, p.evaluate)
	lo, hi := space.RowBounds()
	p.rows = hi - lo
	rp.priors = append(rp.priors, p)
}

// traceResult is the traced replay's output.
type traceResult struct {
	metrics map[string]metric
	layers  []layerRow
	spans   []span
	notes   map[string]any
	// replayed is the request ids the replay covered, with the traced
	// replay's wall per request.
	replayed map[int64]time.Duration
	// hits are the replayed requests answered from the replay's cache.
	hits map[int64]bool
	// mismatched are the split cold answers that did not reproduce the
	// served plan.
	mismatched []splitJob
}

// layerRow is one span name's totals, for the report.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// replay runs the untraced pass over as many measured requests (in server
// order) as fit in a quarter of the budget after its warm-up replay, then the traced pass over the same
// requests, and reduces the traced pass's spans to per-layer metrics.
// Each pass first replays the warm-up requests, so its caches and sessions
// start where the server's did; the traced pass traces them too, and after
// the measured requests applies the remaining ingest batches, so every
// layer the workload's server called has timed calls.
func replay(base *olap.Dataset, warm, measured []*record, ingests []*ingestRecord, budget time.Duration) traceResult {
	ordered := byEnd(measured)
	// window bounds the measured part of a pass; 0 leaves it unbounded.
	run := func(on bool, limit int, window time.Duration) (*replayer, map[int64]time.Duration, int) {
		rp := newReplayer(base, ingests, on)
		for _, r := range byEnd(warm) {
			rp.ingestTo(r.dataEpoch)
			rp.request(r, on)
		}
		rp.parses, rp.answersN = 0, 0
		deadline := time.Now().Add(window)
		walls := map[int64]time.Duration{}
		n := 0
		for _, r := range ordered {
			if n == limit || (window > 0 && time.Now().After(deadline)) {
				break
			}
			rp.ingestTo(r.dataEpoch)
			walls[r.id] = rp.request(r, on)
			n++
		}
		if on {
			rp.ingestTo(math.MaxInt64)
		}
		return rp, walls, n
	}
	_, plainWalls, n := run(false, -1, budget/4)
	traced, tracedWalls, _ := run(true, n, 0)
	traced.runSplits()
	var plainSum, tracedSum time.Duration
	for id, d := range tracedWalls {
		plainSum += plainWalls[id]
		tracedSum += d
	}
	return reduce(traced, n, plainSum, tracedSum, tracedWalls)
}

// reduce turns the traced pass into per-layer metrics.
func reduce(rp *replayer, n int, plainSum, tracedSum time.Duration, tracedWalls map[int64]time.Duration) traceResult {
	spans := rp.tr.spans
	type agg struct {
		calls       int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	childSum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	var reqWall, reqCovered time.Duration
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.calls++
		a.total += s.dur()
		a.self += s.dur() - childSum[i]
		if s.Name == "request" {
			reqWall += s.dur()
			reqCovered += childSum[i]
		}
	}
	meanUS := func(name string) float64 {
		if a := byName[name]; a != nil && a.calls > 0 {
			return us(a.total) / float64(a.calls)
		}
		return 0
	}
	var layers []layerRow
	for name, a := range byName {
		layers = append(layers, layerRow{Name: name, Calls: a.calls, TotalMS: ms(a.total), SelfMS: ms(a.self)})
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].SelfMS > layers[j].SelfMS })

	hs := rp.holistic
	perH := func(f func(holisticSplit) float64) float64 {
		if len(hs) == 0 {
			return 0
		}
		var s float64
		for _, h := range hs {
			s += f(h)
		}
		return s / float64(len(hs))
	}
	var vocalize, splitWall float64
	for _, h := range hs {
		vocalize += ms(h.vocalize)
		splitWall += ms(h.self + h.space + h.read + h.model + h.build + h.uct)
	}
	var evalMS, priorRows float64
	for _, p := range rp.priors {
		evalMS += ms(p.evaluate)
		if !p.warm {
			priorRows += float64(p.rows)
		}
	}
	answers := float64(rp.answersN)
	var samples, uct float64
	for _, h := range hs {
		samples += float64(h.samples)
		uct += float64(h.uct)
	}
	m := map[string]metric{
		"nlq.parse_us":                  {meanUS("nlq.parse"), "us"},
		"nlq.parses_per_answer":         {ratio(float64(rp.parses), answers), "count"},
		"semcache.key_us":               {meanUS("semcache.key"), "us"},
		"semcache.purge_us":             {meanUS("semcache.purge"), "us"},
		"admission.wait_us":             {meanUS("admission.acquire"), "us"},
		"core.vocalize_ms":              {meanUS("core.vocalize") / 1e3, "ms"},
		"core.self_ms":                  {perH(func(h holisticSplit) float64 { return ms(h.self) }), "ms"},
		"olap.space_ms":                 {perH(func(h holisticSplit) float64 { return ms(h.space) }), "ms"},
		"olap.evaluate_ms":              {ratio(evalMS, float64(len(rp.priors))), "ms"},
		"olap.rows_scanned_per_answer":  {ratio(priorRows, answers), "count"},
		"sampling.read_us":              {perH(func(h holisticSplit) float64 { return us(h.read) }), "us"},
		"sampling.rows_read_per_answer": {perH(func(h holisticSplit) float64 { return float64(h.rowsRead) }), "count"},
		"sampling.view_build_ms":        {meanUS("sampling.view_build") / 1e3, "ms"},
		"mcts.build_ms":                 {perH(func(h holisticSplit) float64 { return ms(h.build) }), "ms"},
		"mcts.nodes_per_answer":         {perH(func(h holisticSplit) float64 { return float64(h.nodes) }), "count"},
		"mcts.build_alloc_mb":           {perH(func(h holisticSplit) float64 { return h.buildAlloc }), "MiB"},
		"mcts.uct_ms":                   {perH(func(h holisticSplit) float64 { return ms(h.uct) }), "ms"},
		"mcts.rounds_per_answer":        {perH(func(h holisticSplit) float64 { return float64(h.samples) }), "count"},
		"mcts.ns_per_round":             {ratio(uct, samples), "ns"},
		"belief.model_us":               {perH(func(h holisticSplit) float64 { return us(h.model) }), "us"},
		"belief.rewards_per_answer":     {perH(func(h holisticSplit) float64 { return float64(h.rewards) }), "count"},
		"speech.ssml_us":                {meanUS("speech.ssml"), "us"},
		"encode.speech_us":              {meanUS("encode.speech"), "us"},
		"baseline.prior_ms":             {meanUS("baseline.prior") / 1e3, "ms"},
		"table.append_us":               {meanUS("table.append"), "us"},
		"trace.coverage":                {ratio(float64(reqCovered), float64(reqWall)), "ratio"},
		"trace.overhead_share":          {ratio(float64(tracedSum-plainSum), float64(plainSum)), "ratio"},
	}
	remainder := ratio(float64(reqWall-reqCovered), float64(reqWall))
	notes := map[string]any{
		"replayed_requests":   n,
		"split_holistic":      len(hs),
		"split_prior":         len(rp.priors),
		"split_mismatch":      len(rp.mismatched),
		"split_over_vocalize": ratio(splitWall, vocalize),
		"request_self_share":  remainder,
		"traced_request_ms":   ms(tracedSum),
		"untraced_request_ms": ms(plainSum),
		"spans":               len(spans),
	}
	return traceResult{metrics: m, layers: layers, spans: spans, notes: notes, replayed: tracedWalls, hits: rp.hits, mismatched: rp.mismatched}
}

// webSelfShare is the share of ServeHTTP time that the replayed layer
// calls do not account for — HTTP decoding, session bookkeeping, locking,
// the query log and JSON encoding — over the measured requests that both
// the server and the replay answered from tier A. On that path both
// executions make the same calls (parses, key, cache probe, encoding),
// so the difference is the web layer's own work; cold answers are left
// out, because concurrent serving and a serial replay plan them under
// different contention. It reads 0 where the window had no tier-A hits.
func webSelfShare(b *bench, tr traceResult, measured []*record) float64 {
	var serve, layers time.Duration
	for _, r := range measured {
		if r.cache != "hit" || !tr.hits[r.id] {
			continue
		}
		d, ok := tr.replayed[r.id]
		if s := b.serve.get(r.id); ok && s > 0 {
			serve += s
			layers += d
		}
	}
	return ratio(float64(serve-layers), float64(serve))
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
