// Package repro_bench holds the benchmark harness that regenerates every
// table and figure of the paper (one benchmark per experiment) plus
// microbenchmarks backing the complexity analysis of Appendix A and the
// ablation sweeps of DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes, not absolute numbers, are the reproduction target; see
// EXPERIMENTS.md for the paper-versus-measured record.
package repro_bench

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
	"repro/internal/voice"
)

// benchRows keeps benchmark dataset generation moderate; run cmd/benchrunner
// with -flight-rows 5300000 for paper scale.
const benchRows = 100000

var (
	setupOnce sync.Once
	setupVal  *experiments.Setup
	setupErr  error
)

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = experiments.NewSetup(benchRows, 1)
	})
	if setupErr != nil {
		b.Fatalf("setup: %v", setupErr)
	}
	return setupVal
}

// --- One benchmark per paper table/figure ---

// BenchmarkFigure3 regenerates Figure 3: latency and quality of optimal,
// holistic, and unmerged across the eight flight queries.
func BenchmarkFigure3(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(s)
		if err != nil {
			b.Fatal(err)
		}
		sum := experiments.Summarize(rows)
		b.ReportMetric(float64(sum.MeanLatency["optimal"])/1e6, "optLatMs")
		b.ReportMetric(float64(sum.MeanLatency["holistic"])/1e6, "holLatMs")
		b.ReportMetric(sum.MeanQuality["holistic"], "holQuality")
		b.ReportMetric(sum.MeanQuality["unmerged"], "unmQuality")
	}
}

// BenchmarkTable2Pilot regenerates the pilot-study consistency counts.
func BenchmarkTable2Pilot(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(s)
		b.ReportMetric(float64(res.PerAspect["Variance"].Consistent), "varConsistent")
	}
}

// BenchmarkTable5Speeches regenerates the three alternative speeches for
// the region-by-season query with their exact qualities.
func BenchmarkTable5Speeches(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Approach {
			case "optimal":
				b.ReportMetric(r.Quality, "optQuality")
			case "holistic":
				b.ReportMetric(r.Quality, "holQuality")
			case "unmerged":
				b.ReportMetric(r.Quality, "unmQuality")
			}
		}
	}
}

// BenchmarkTable6Errors regenerates the estimation study: median absolute
// user error per approach (Table 6) and tendency accuracy (Table 14).
func BenchmarkTable6Errors(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table6And14(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range studies {
			switch st.Approach {
			case "optimal":
				b.ReportMetric(st.MedianAbsError, "optMedErr")
			case "holistic":
				b.ReportMetric(st.MedianAbsError, "holMedErr")
			case "unmerged":
				b.ReportMetric(st.MedianAbsError, "unmMedErr")
			}
		}
	}
}

// BenchmarkTable7Facts regenerates the extracted example facts.
func BenchmarkTable7Facts(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		facts, err := experiments.Table7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(facts)), "facts")
	}
}

// BenchmarkTable8Preferences regenerates the exploratory preference study
// (reduced session count; cmd/benchrunner runs the full 20).
func BenchmarkTable8Preferences(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table8And9(s, 4)
		if err != nil {
			b.Fatal(err)
		}
		flights := studies[1].Result
		thisVotes := flights.Prefs[3] + flights.Prefs[4]
		priorVotes := flights.Prefs[0] + flights.Prefs[1]
		b.ReportMetric(float64(thisVotes), "thisVotes")
		b.ReportMetric(float64(priorVotes), "priorVotes")
	}
}

// BenchmarkTable9Lengths regenerates the speech-length comparison: prior
// output dwarfs ours, especially on the multi-dimensional flights data.
func BenchmarkTable9Lengths(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table8And9(s, 3)
		if err != nil {
			b.Fatal(err)
		}
		fl := studies[1].Result.Lengths
		b.ReportMetric(float64(fl.ThisAvg), "thisAvg")
		b.ReportMetric(float64(fl.PriorAvg), "priorAvg")
		b.ReportMetric(float64(fl.PriorMax), "priorMax")
	}
}

// BenchmarkTable11Stats regenerates the dataset statistics.
func BenchmarkTable11Stats(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := experiments.Table11(s)
		b.ReportMetric(float64(stats[1].Rows), "flightRows")
	}
}

// BenchmarkTable12FullResult regenerates the exact region-by-season result.
func BenchmarkTable12FullResult(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table12(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Cancellation, "topCell")
	}
}

// BenchmarkTable13Speeches regenerates the fine-grained query comparison.
func BenchmarkTable13Speeches(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table13(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

func runAblation(b *testing.B, f func(*experiments.Setup) ([]experiments.AblationRow, error)) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := f(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Quality, metricUnit(r.Variant))
		}
	}
}

// metricUnit turns a human-readable variant label into a metric unit
// (testing.B forbids whitespace in units).
func metricUnit(label string) string {
	var out []rune
	for _, r := range label {
		switch {
		case r == ' ' || r == '\t' || r == '/':
			out = append(out, '-')
		case r == '(' || r == ')':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblationUniformVsUCT quantifies what UCT prioritization buys
// over uniform random tree sampling.
func BenchmarkAblationUniformVsUCT(b *testing.B) {
	runAblation(b, experiments.AblationUCTVsUniform)
}

// BenchmarkAblationResampleSize compares running-mean estimates against
// the fixed-size resampling of the paper's literal Algorithm 3.
func BenchmarkAblationResampleSize(b *testing.B) {
	runAblation(b, experiments.AblationResample)
}

// BenchmarkAblationAbsoluteRefinements compares the relative-refinement
// grammar against a disjoint-scope (absolute-claim) restriction.
func BenchmarkAblationAbsoluteRefinements(b *testing.B) {
	runAblation(b, experiments.AblationRelativeVsAbsolute)
}

// BenchmarkAblationSigma sweeps the belief σ around the paper's 50%-of-
// mean choice.
func BenchmarkAblationSigma(b *testing.B) {
	runAblation(b, experiments.AblationSigma)
}

// BenchmarkAblationFragments sweeps the refinement budget k.
func BenchmarkAblationFragments(b *testing.B) {
	runAblation(b, experiments.AblationFragments)
}

// BenchmarkAblationWarmStart compares on-line sampling against a
// materialized sample view (the Section 4.3 extension).
func BenchmarkAblationWarmStart(b *testing.B) {
	runAblation(b, experiments.AblationWarmStart)
}

// BenchmarkAblationPlanningBudget sweeps rounds per sentence — the
// learning curve behind the pipelining argument.
func BenchmarkAblationPlanningBudget(b *testing.B) {
	runAblation(b, experiments.AblationPlanningBudget)
}

// BenchmarkMetricComparison scores the Table 5 speeches under all four
// belief-to-data metrics.
func BenchmarkMetricComparison(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MetricComparison(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Quality, r.Approach+"-quality")
		}
	}
}

// --- Microbenchmarks backing Appendix A ---

type microEnv struct {
	space  *olap.Space
	gen    *speech.Generator
	model  *belief.Model
	cache  *sampling.Cache
	result *olap.Result
}

var (
	microOnce sync.Once
	microVal  *microEnv
	microErr  error
)

func microSetup(b *testing.B) *microEnv {
	b.Helper()
	microOnce.Do(func() {
		d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 5})
		if err != nil {
			microErr = err
			return
		}
		q := olap.Query{
			Fct: olap.Avg, Col: "cancelled",
			ColDescription: "average cancellation probability",
			GroupBy: []olap.GroupBy{
				{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
				{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			},
		}
		space, err := olap.NewSpace(d, q)
		if err != nil {
			microErr = err
			return
		}
		result, err := olap.EvaluateSpace(space)
		if err != nil {
			microErr = err
			return
		}
		model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
		if err != nil {
			microErr = err
			return
		}
		cache, err := sampling.NewCache(space)
		if err != nil {
			microErr = err
			return
		}
		for row := 0; row < 20000; row++ {
			cache.Insert(row)
		}
		microVal = &microEnv{space: space, gen: speech.NewGenerator(space, speech.DefaultPrefs(), speech.PercentFormat), model: model, cache: cache, result: result}
	})
	if microErr != nil {
		b.Fatalf("micro setup: %v", microErr)
	}
	return microVal
}

// BenchmarkMCTSSampleComplexity measures one tree-sampling round — the
// O(k·m) inner-loop operation of Theorem A.3 that must stay far below
// sentence playback time.
func BenchmarkMCTSSampleComplexity(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(1))
	eval := func(sp *speech.Speech) (float64, bool) {
		a, ok := e.cache.PickAggregate(rng)
		if !ok {
			return 0, false
		}
		est, ok := e.cache.Estimate(a, rng)
		if !ok {
			return 0, false
		}
		return e.model.Reward(sp, a, est), true
	}
	tree, err := mcts.NewTree(e.gen, e.result.GrandValue(), eval, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Sample()
	}
}

// BenchmarkTreeExpand measures full eager tree construction — the O(m^k)
// pre-processing of Theorem A.4, overlapped by the preamble in practice.
func BenchmarkTreeExpand(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(2))
	eval := func(*speech.Speech) (float64, bool) { return 0.5, true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := mcts.NewTree(e.gen, e.result.GrandValue(), eval, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tree.NodeCount()), "nodes")
	}
}

// BenchmarkSpeechDBEval measures one speech-vs-sample evaluation
// (Lemma A.2's O(k) operation).
func BenchmarkSpeechDBEval(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(3))
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sp = sp.Extend(e.gen.Refinements(nil)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := e.cache.PickAggregate(rng)
		est, _ := e.cache.Estimate(a, rng)
		e.model.Reward(sp, a, est)
	}
}

// BenchmarkExactQuality measures full exact speech-quality scoring — what
// the optimal baseline pays per candidate speech.
func BenchmarkExactQuality(b *testing.B) {
	e := microSetup(b)
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sp = sp.Extend(e.gen.Refinements(nil)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.model.Quality(sp, e.result)
	}
}

// BenchmarkCacheInsert measures row classification and cache insertion —
// the per-row cost of the sampling pipeline.
func BenchmarkCacheInsert(b *testing.B) {
	e := microSetup(b)
	cache, err := sampling.NewCache(e.space)
	if err != nil {
		b.Fatal(err)
	}
	n := e.space.Dataset().Table().NumRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Insert(i % n)
	}
}

// BenchmarkExactEvaluate measures a full exact group-by scan — the cost
// the holistic approach amortizes away.
func BenchmarkExactEvaluate(b *testing.B) {
	e := microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := olap.EvaluateSpace(e.space); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Vectorized row pipeline ---

// BenchmarkClassifyRow measures dense per-row classification (array loads
// into the precompiled position tables) against the batch variant.
func BenchmarkClassifyRow(b *testing.B) {
	e := microSetup(b)
	n := e.space.Dataset().Table().NumRows()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.space.ClassifyRow(i % n)
	}
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)/d, "rows/s")
	}
}

// BenchmarkClassifyRange measures the batch classifier the parallel scan
// and InsertBatch run on.
func BenchmarkClassifyRange(b *testing.B) {
	e := microSetup(b)
	n := e.space.Dataset().Table().NumRows()
	idxs := make([]int32, n)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.space.ClassifyRange(0, n, idxs)
	}
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)*float64(n)/d, "rows/s")
	}
}

// BenchmarkInsertBatch measures batched cache insertion — the sampling
// pipeline's per-row cost with classification amortized over a batch.
func BenchmarkInsertBatch(b *testing.B) {
	e := microSetup(b)
	cache, err := sampling.NewCache(e.space)
	if err != nil {
		b.Fatal(err)
	}
	n := e.space.Dataset().Table().NumRows()
	const batchLen = 1024
	rows := make([]int, batchLen)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batchLen) % n
		for j := range rows {
			rows[j] = (base + j) % n
		}
		cache.InsertBatch(rows)
	}
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)*batchLen/d, "rows/s")
	}
}

// BenchmarkEvaluateParallel measures the multicore exact scan against the
// sequential reference, reporting rows/s and the speedup. On a multicore
// machine (4+ cores) the speedup should exceed 3x at benchRows scale; on a
// single core the parallel path degenerates to the sequential one.
func BenchmarkEvaluateParallel(b *testing.B) {
	e := microSetup(b)
	n := e.space.Dataset().Table().NumRows()
	seqStart := time.Now()
	const seqReps = 3
	for i := 0; i < seqReps; i++ {
		if _, err := olap.EvaluateSpaceSequential(e.space); err != nil {
			b.Fatal(err)
		}
	}
	seqSec := time.Since(seqStart).Seconds() / seqReps
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := olap.EvaluateSpaceWorkers(e.space, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		parSec := d / float64(b.N)
		b.ReportMetric(float64(n)/parSec, "rows/s")
		if parSec > 0 && seqSec > 0 {
			b.ReportMetric(seqSec/parSec, "speedup")
		}
	}
}

// BenchmarkEvaluateSequential is the single-threaded reference scan for
// the speedup reported by BenchmarkEvaluateParallel.
func BenchmarkEvaluateSequential(b *testing.B) {
	e := microSetup(b)
	n := e.space.Dataset().Table().NumRows()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := olap.EvaluateSpaceSequential(e.space); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)*float64(n)/d, "rows/s")
	}
}

// --- Incremental quality kernel and end to end ---

// BenchmarkScorerQuality measures one DFS edge of the incremental quality
// kernel (Push + Quality + Pop): what core.Optimal pays per candidate
// speech. Compare against BenchmarkExactQuality, the scalar Model.Quality
// on an equivalent one-refinement speech.
func BenchmarkScorerQuality(b *testing.B) {
	e := microSetup(b)
	sc := e.model.NewScorer(e.result)
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sc.Reset(sp)
	r := e.gen.Refinements(nil)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Push(r)
		sc.Quality()
		sc.Pop()
	}
}

// BenchmarkHolisticEndToEnd measures one complete holistic vocalization on
// a simulated clock.
func BenchmarkHolisticEndToEnd(b *testing.B) {
	s := benchSetup(b)
	q, err := s.FlightsQuery("-", "RD")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Format:               speech.PercentFormat,
			Seed:                 int64(i),
			Clock:                voice.NewSimClock(),
			SimRoundCost:         time.Millisecond,
			MaxRoundsPerSentence: 2000,
		}
		if _, err := core.NewHolistic(s.Flights, q, cfg).Vocalize(); err != nil {
			b.Fatal(err)
		}
	}
}
