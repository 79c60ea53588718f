package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// viewWait bounds how long warm-up waits for background view builds.
const viewWait = 30 * time.Second

// ingestProbes is how many batches a traced run of a workload without
// ingest sends after its window, so the ingest path is timed too.
const ingestProbes = 5

// warmUp runs the workload's warm-up against a fresh server: the first
// ingest batch (copy-on-first-ingest), a full tier-A/B fill, or a few
// sessions, then waits for the background view builder to catch up.
func warmUp(w workload, dr *runner, src source, seed int64) ([]*clientState, []*ingestRecord, error) {
	var ingests []*ingestRecord
	if w.ingest {
		in := dr.ingest(0, ingestRows(seed, 0), 0)
		if in.err != "" || in.code != 200 {
			return nil, nil, fmt.Errorf("warm-up ingest: %d %s", in.code, in.err)
		}
		ingests = append(ingests, in)
	}
	var jobs [][]turn
	var sessions []string
	if w.fillCache {
		for i, t := range src.(*repeatSource).all() {
			jobs = append(jobs, []turn{t})
			sessions = append(sessions, fmt.Sprintf("fill-%d", i))
		}
	}
	sim := newSimulator(dr.b.flights)
	for i, t := range w.warmup {
		_, resolved, ok := try(sim.fresh(), t.input, t.method)
		if !ok {
			return nil, nil, fmt.Errorf("warm-up command %q does not ask a query", t.input)
		}
		jobs = append(jobs, []turn{resolved})
		sessions = append(sessions, fmt.Sprintf("warm-%d", i))
	}
	for i := 0; i < w.preroll; i++ {
		s, turns := src.next()
		jobs = append(jobs, turns)
		sessions = append(sessions, s)
	}
	states := dr.warm(jobs, sessions, clients)
	views := map[string]bool{}
	for _, cs := range states {
		for _, r := range cs.records {
			if r.code != 200 {
				return nil, nil, fmt.Errorf("warm-up %q: %d %s", r.turn.input, r.code, r.err)
			}
			if r.servedBy == "this" && r.cache == "" {
				views[storeKey("", r.turn.key, r.dataEpoch)] = true
			}
		}
	}
	waitViews(dr.b, len(views))
	return states, ingests, nil
}

// waitViews polls /metrics until the view cache holds want entries.
func waitViews(b *bench, want int) {
	deadline := time.Now().Add(viewWait)
	for time.Now().Before(deadline) {
		body, err := b.get("/metrics")
		if err == nil && int(promCounters(body)["voiceolap_semcache_view_entries"]) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runWorkload sets the workload up w.setupReps times, measures the last
// set-up for the given duration, checks every answer, and (traced) replays
// the measured requests through the layers.
func runWorkload(w workload, seed int64, dur time.Duration, traced bool) (*report, error) {
	var (
		setups     []float64
		b          *bench
		dr         *runner
		src        source
		warmStates []*clientState
		warmIngest []*ingestRecord
	)
	for rep := 0; rep < w.setupReps; rep++ {
		if b != nil {
			b.stop()
			b = nil
		}
		runtime.GC()
		t := time.Now()
		nb, err := startBench(w.rows)
		if err != nil {
			return nil, err
		}
		d := &runner{b: nb, origin: t}
		s := w.newSource(nb.flights, seed)
		ws, wi, err := warmUp(w, d, s, seed)
		if err != nil {
			nb.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		b, dr, src, warmStates, warmIngest = nb, d, s, ws, wi
	}
	stopped := false
	defer func() {
		if !stopped {
			b.stop()
		}
	}()

	body, err := b.get("/metrics")
	if err != nil {
		return nil, err
	}
	m0 := promCounters(body)
	runtime.GC()
	rt0 := readRuntime()
	heap := startHeapWatch()
	start := time.Since(dr.origin)
	deadline := start + dur
	var states []*clientState
	var ingests []*ingestRecord
	if w.ingest {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ingests = dr.ingestLoop(seed, len(warmIngest), start, deadline)
		}()
		states = dr.closedLoop(src, w.queryClients, deadline)
		wg.Wait()
	} else {
		states = dr.closedLoop(src, w.queryClients, deadline)
	}
	elapsed := time.Since(dr.origin) - start
	heapMean, heapPeak := heap.stop()
	rt1 := readRuntime()
	body, err = b.get("/metrics")
	if err != nil {
		return nil, err
	}
	m1 := promCounters(body)
	var probes []*ingestRecord
	if traced && !w.ingest {
		for k := 0; k < ingestProbes; k++ {
			probes = append(probes, dr.ingest(k+1, ingestRows(seed, k+1), 0))
		}
	}
	b.stop()
	stopped = true

	var measured, warm []*record
	for _, cs := range states {
		measured = append(measured, cs.records...)
	}
	for _, cs := range warmStates {
		warm = append(warm, cs.records...)
	}
	all := append(append([]*record(nil), measured...), warm...)
	allIngests := append(append(append([]*ingestRecord(nil), warmIngest...), ingests...), probes...)
	chk := newChecker(newEpochData(b.flights, allIngests))
	res := chk.check(all, allIngests)

	rep := &report{
		Workload: w.name,
		Why:      w.why,
		Stamp:    stamp(w, seed),
		Samples:  map[string]int{},
		Checks:   map[string]any{},
		Extra:    map[string]metric{},
	}
	attempted := len(measured) + len(ingests)
	failedIngests := 0
	for _, in := range ingests {
		if in.code != 200 || in.err != "" {
			failedIngests++
		}
	}
	failed := res.failedAnswers + failedIngests
	p50, p90, rate, slices, perSlice := sliceStats(measured, start, dur)

	walls := make([]float64, 0, len(measured))
	var clientSide []float64
	for _, r := range measured {
		walls = append(walls, ms(r.wall()))
		if s := b.serve.get(r.id); s > 0 {
			clientSide = append(clientSide, us(r.wall()-s))
		}
	}
	// Ingest batches are sent open loop, so each is timed from when it
	// was due; a stalled send counts against the batches behind it.
	var ingestWalls []float64
	for _, in := range append(ingests, probes...) {
		ingestWalls = append(ingestWalls, ms(in.end-in.start+in.late))
	}
	var late []float64
	rowsAppended := 0
	for _, in := range ingests {
		late = append(late, ms(in.late))
		if in.code == 200 && in.err == "" {
			rowsAppended += len(in.rows)
		}
	}
	allocMiB := (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
	e2e := map[string]metric{
		"wall_p50_ms":   {p50, "ms"},
		"wall_p90_ms":   {p90, "ms"},
		"answers_per_s": {rate, "1/s"},
		"quality_mean":  {mean(res.qualities), "quality"},
		"setup_s":       {median(setups), "s"},
	}
	for k, v := range e2e {
		rep.Extra[k] = v
	}
	rep.Extra["failed_ratio"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	rep.Extra["ingest_late_p90_ms"] = metric{quantile(late, 0.9), "ms"}
	rep.Extra["elapsed_s"] = metric{elapsed.Seconds(), "s"}
	rep.Extra["window_wall_p50_ms"] = metric{quantile(walls, 0.5), "ms"}
	rep.Extra["window_wall_p90_ms"] = metric{quantile(walls, 0.9), "ms"}
	rep.Extra["window_answers_per_s"] = metric{float64(len(measured)-res.failedAnswers) / elapsed.Seconds(), "1/s"}

	d := func(series string) float64 { return m1[series] - m0[series] }
	hits := d(`voiceolap_semcache_served_total{path="hit"}`) + d(`voiceolap_semcache_served_total{path="coalesced"}`)
	viewHits := d(`voiceolap_semcache_views_total{outcome="hit"}`)
	viewLookups := viewHits + d(`voiceolap_semcache_views_total{outcome="miss"}`)
	shed := sumPrefix(m1, "voiceolap_tenant_shed_total") - sumPrefix(m0, "voiceolap_tenant_shed_total")
	counters := map[string]metric{
		"web.serve_us":              {medianServe(b, measured), "us"},
		"web.client_us":             {median(clientSide), "us"},
		"semcache.answer_hit_ratio": {ratio(hits, float64(len(measured))), "ratio"},
		"semcache.view_hit_ratio":   {ratio(viewHits, viewLookups), "ratio"},
		"sampling.view_builds":      {d(`voiceolap_semcache_views_total{event="stored"}`), "count"},
		"admission.shed_ratio":      {ratio(shed, float64(len(measured))), "ratio"},
		"go.gc_cpu_share":           {ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"},
		"ingest.wall_p50_ms":        {quantile(ingestWalls, 0.5), "ms"},
		"table.rows_appended":       {float64(rowsAppended), "count"},
		"go.alloc_mb_per_answer":    {ratio(allocMiB, float64(len(measured))), "MiB"},
		"go.heap_live_mb":           {heapMean / (1 << 20), "MiB"},
		"go.peak_heap_mb":           {heapPeak / (1 << 20), "MiB"},
	}
	for k, v := range counters {
		rep.Extra[k] = v
	}

	n90 := len(walls) - int(0.9*float64(len(walls)))
	rep.Samples["answers"] = len(measured)
	rep.Samples["slices"] = slices
	rep.Samples["beyond_p90"] = n90
	rep.Samples["ingests"] = len(ingests)
	rep.Samples["ingest_probes"] = len(probes)
	rep.Samples["quality"] = len(res.qualities)
	rep.Samples["setup_reps"] = len(setups)
	rep.Samples["warmup_answers"] = len(warm)
	rep.Checks["failures"] = chk.failures
	rep.Checks["examples"] = chk.examples
	rep.Checks["recomputed_identical"] = res.recomputed
	rep.Checks["setups_s"] = setups
	rep.Checks["slices"] = perSlice

	metrics := e2e
	if traced {
		tr := replay(b.flights, warm, measured, allIngests, dur)
		// The per-layer split stands for the served answers only while it
		// reproduces their plans; a split that does not is a failed answer.
		for _, j := range tr.mismatched {
			chk.fail("split-mismatch", fmt.Sprintf("request %d: %v", j.req, j.query))
			if !j.warm {
				failed++
			}
		}
		metrics = tr.metrics
		for k, v := range counters {
			metrics[k] = v
		}
		metrics["web.self_share"] = metric{webSelfShare(b, tr, measured), "ratio"}
		for k, v := range metrics {
			rep.Extra[k] = v
		}
		rep.Layers = tr.layers
		rep.spans = tr.spans
		rep.Checks["trace"] = tr.notes
	}
	rep.Result = result{
		Correct:   chk.failed() == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return rep, nil
}

// Slicing: the measured window is cut into equal slices of at least
// minSliceAnswers answers (at most maxSlices), and the wall quantiles and
// answer rate are the medians over slices, so interference confined to
// part of a run moves the result less.
const (
	minSliceAnswers = 1000
	maxSlices       = 10
)

// sliceStats returns the median over slices of each slice's wall p50 and
// p90 (ms) and good answers per second, with the slice count and the
// per-slice values. Requests are assigned to slices by start time; a
// slice's rate is its good answers over the span from its first send to
// its last reply.
func sliceStats(recs []*record, start, dur time.Duration) (p50, p90, rate float64, n int, per map[string][]float64) {
	n = len(recs) / minSliceAnswers
	if n > maxSlices {
		n = maxSlices
	}
	if n < 1 {
		n = 1
	}
	walls := make([][]float64, n)
	good := make([]float64, n)
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	for _, r := range recs {
		i := int(int64(r.start-start) * int64(n) / int64(dur))
		if i < 0 || i >= n {
			continue
		}
		if len(walls[i]) == 0 || r.start < first[i] {
			first[i] = r.start
		}
		if r.end > last[i] {
			last[i] = r.end
		}
		walls[i] = append(walls[i], ms(r.wall()))
		if !r.failed {
			good[i]++
		}
	}
	var q50, q90, rates []float64
	for i := range walls {
		q50 = append(q50, quantile(walls[i], 0.5))
		q90 = append(q90, quantile(walls[i], 0.9))
		rates = append(rates, ratio(good[i], (last[i]-first[i]).Seconds()))
	}
	per = map[string][]float64{"wall_p50_ms": q50, "wall_p90_ms": q90, "answers_per_s": rates}
	return median(q50), median(q90), median(rates), n, per
}

// medianServe is the median time measured requests spent in ServeHTTP.
func medianServe(b *bench, recs []*record) float64 {
	var xs []float64
	for _, r := range recs {
		if s := b.serve.get(r.id); s > 0 {
			xs = append(xs, us(s))
		}
	}
	return median(xs)
}

// byEnd orders records by completion, the order the server finished them.
func byEnd(recs []*record) []*record {
	out := append([]*record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}
