package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
	"repro/internal/table"
)

// PlannerConfig parameterizes the planner benchmark: the exhaustive quality
// search (scalar versus incremental scorer) and UCT sampling throughput.
type PlannerConfig struct {
	// Rows is the flight dataset size (<= 0 selects DefaultBenchFlightRows).
	Rows int
	// Seed drives dataset generation and all sampling RNGs.
	Seed int64
	// Rounds is the number of tree-sampling rounds per throughput
	// measurement (<= 0 selects 20000).
	Rounds int
	// Dims selects the quality-kernel query shape: "CM" (default) breaks
	// down by city and month and "SM" by state and month — paper-scale
	// aggregate counts in the hundreds, which is what the scorer targets —
	// while "RD" is the small region-by-season query of Figure 3. Sampling
	// throughput always runs on the region-by-season tree (the query the
	// holistic planner demos actually sample).
	Dims string
	// MaxSpeeches caps the enumerated candidate set the quality kernels
	// are timed over (<= 0 selects 50000). All variants score the
	// identical set, so the cap never biases the comparison.
	MaxSpeeches int
}

// PlannerResult is the machine-readable record of the planner benchmark.
// benchrunner -exp planner writes it to BENCH_planner.json.
type PlannerResult struct {
	Rows int `json:"rows"`
	// NumCPU and Gomaxprocs pin the machine the numbers were taken on.
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Query      string `json:"query"`
	Aggregates int    `json:"aggregates"`

	// Exhaustive quality search over every valid speech, two ways: scalar
	// is Model.Quality per candidate (bitset scopes, memoized deltas),
	// scorer is the incremental apply/undo kernel the optimal planner uses.
	SpeechesScored    int     `json:"speeches_scored"`
	ScalarQualityNs   int64   `json:"scalar_quality_ns"`
	ScorerQualityNs   int64   `json:"scorer_quality_ns"`
	ScalarNsPerSpeech float64 `json:"scalar_ns_per_speech"`
	ScorerNsPerSpeech float64 `json:"scorer_ns_per_speech"`
	// ScorerSpeedup is scalar/scorer: the incremental kernel's gain over
	// the per-candidate loop.
	ScorerSpeedup float64 `json:"scorer_speedup"`
	// IdenticalChoice must be true: both searches pick the same speech
	// (the kernel changes evaluation order, not the math).
	IdenticalChoice bool   `json:"identical_choice"`
	BestSpeech      string `json:"best_speech"`

	// UCT sampling throughput at fixed rounds, on the region-by-season
	// tree (SamplingQuery), and the sampler's steady-state allocations.
	SamplingQuery  string  `json:"sampling_query"`
	TreeNodes      int     `json:"tree_nodes"`
	Rounds         int     `json:"rounds"`
	SampleNs       int64   `json:"sample_ns"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// searchHooks lets exhaustiveSearch drive either a stateless per-candidate
// scorer (score only) or the incremental scorer (reset/push/pop around the
// DFS edges).
type searchHooks struct {
	reset func(sp *speech.Speech)
	push  func(r *speech.Refinement)
	pop   func()
	score func(sp *speech.Speech) float64
}

// exhaustiveSearch enumerates valid speeches exactly like the optimal
// planner (all baselines, all refinement chains up to the preference
// limits, DFS order) and returns the quality maximizer and the candidate
// count. limit > 0 stops the enumeration after that many candidates.
func exhaustiveSearch(gen *speech.Generator, prefs speech.Prefs, preamble *speech.Preamble, scale float64, limit int, h searchHooks) (*speech.Speech, int) {
	var best *speech.Speech
	bestQ := -1.0
	scored := 0
	var extend func(sp *speech.Speech)
	extend = func(sp *speech.Speech) {
		if limit > 0 && scored >= limit {
			return
		}
		q := h.score(sp)
		scored++
		if q > bestQ {
			bestQ = q
			best = sp
		}
		if len(sp.Refinements) >= prefs.MaxFragments {
			return
		}
		for _, r := range gen.Refinements(sp.Refinements) {
			if limit > 0 && scored >= limit {
				return
			}
			ext := sp.Extend(r)
			if ext.Valid(prefs) {
				if h.push != nil {
					h.push(r)
				}
				extend(ext)
				if h.pop != nil {
					h.pop()
				}
			}
		}
	}
	for _, b := range gen.BaselineCandidates(speech.SpeechScale(scale)) {
		if limit > 0 && scored >= limit {
			break
		}
		sp := &speech.Speech{Preamble: preamble, Baseline: b}
		if h.reset != nil {
			h.reset(sp)
		}
		extend(sp)
	}
	return best, scored
}

// Op kinds of the recorded scoring tape: the DFS's incremental-scorer
// calls, replayed during timing so enumeration overhead (candidate
// generation, validity checks) is excluded from every kernel variant.
const (
	opReset = iota
	opPush
	opPop
	opScore
)

type scoreOp struct {
	kind int
	sp   *speech.Speech
	r    *speech.Refinement
}

// Planner measures the speech planner on the flights region-by-season
// query: the exhaustive quality search two ways (scalar model, incremental
// scorer), UCT sampling throughput, and the sampler's allocations per
// round.
func Planner(cfg PlannerConfig) (*PlannerResult, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultBenchFlightRows
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 20000
	}

	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	setup := &Setup{Flights: flights, Seed: cfg.Seed}
	dims := cfg.Dims
	if dims == "" {
		dims = "CM"
	}
	var q olap.Query
	switch dims {
	case "SM", "CM":
		// State by month (level 2x2) or city by month (level 3x2): the
		// unfiltered drill-down breakdowns on both hierarchies, paper-scale
		// aggregate counts in the hundreds.
		level := 2
		if dims == "CM" {
			level = 3
		}
		airport := flights.HierarchyByName("start airport")
		date := flights.HierarchyByName("flight date")
		q = olap.Query{
			Fct: olap.Avg, Col: "cancelled",
			ColDescription: "average cancellation probability",
			GroupBy: []olap.GroupBy{
				{Hierarchy: airport, Level: level},
				{Hierarchy: date, Level: 2},
			},
		}
		if err := q.Validate(); err != nil {
			return nil, err
		}
	default:
		q, err = setup.FlightsQuery("-", dims)
		if err != nil {
			return nil, err
		}
	}
	space, err := olap.NewSpace(flights, q)
	if err != nil {
		return nil, err
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return nil, err
	}
	scale := result.GrandValue()
	sigma := belief.SigmaFromScale(scale)
	if sigma <= 0 {
		sigma = 1
	}
	model, err := belief.NewModel(space, sigma)
	if err != nil {
		return nil, err
	}
	prefs := speech.DefaultPrefs()
	gen := speech.NewGenerator(space, prefs, speech.PercentFormat)
	preamble := gen.NewPreamble()

	// Record the optimal planner's DFS over the candidate space once as a
	// tape of scorer operations, then time both quality kernels over the
	// identical candidate set with enumeration overhead excluded: what
	// remains is exactly the per-candidate scoring loop. Both must pick
	// the same speech.
	maxSpeeches := cfg.MaxSpeeches
	if maxSpeeches <= 0 {
		maxSpeeches = 50000
	}
	var tape []scoreOp
	var speeches []*speech.Speech
	_, scored := exhaustiveSearch(gen, prefs, preamble, scale, maxSpeeches, searchHooks{
		reset: func(sp *speech.Speech) { tape = append(tape, scoreOp{kind: opReset, sp: sp}) },
		push:  func(r *speech.Refinement) { tape = append(tape, scoreOp{kind: opPush, r: r}) },
		pop:   func() { tape = append(tape, scoreOp{kind: opPop}) },
		score: func(sp *speech.Speech) float64 {
			tape = append(tape, scoreOp{kind: opScore, sp: sp})
			speeches = append(speeches, sp)
			return 0
		},
	})
	var scalarBest, scorerBest *speech.Speech
	scalarNs := timeBest(7, func() {
		bestQ := -1.0
		for _, sp := range speeches {
			if q := model.Quality(sp, result); q > bestQ {
				bestQ = q
				scalarBest = sp
			}
		}
	})
	sc := model.NewScorer(result)
	scorerNs := timeBest(7, func() {
		var best *speech.Speech
		bestQ := -1.0
		for _, op := range tape {
			switch op.kind {
			case opReset:
				sc.Reset(op.sp)
			case opPush:
				sc.Push(op.r)
			case opPop:
				sc.Pop()
			case opScore:
				if q := sc.Quality(); q > bestQ {
					bestQ = q
					best = op.sp
				}
			}
		}
		scorerBest = best
	})
	identical := scalarBest != nil && scorerBest != nil && scalarBest.Text() == scorerBest.Text()

	// UCT sampling throughput on the Figure 3 region-by-season query (the
	// tree the holistic planner demos actually sample; its candidate
	// space expands fully within the node budget, so rounds measure
	// steady-state sampling, not tree growth). Estimates come from a
	// sampling cache over the full table, rewards from the belief model —
	// the same evaluation the planner runs, minus the voice pipeline.
	sampleQ, err := setup.FlightsQuery("-", "RD")
	if err != nil {
		return nil, err
	}
	sampleSpace, err := olap.NewSpace(flights, sampleQ)
	if err != nil {
		return nil, err
	}
	sampleResult, err := olap.EvaluateSpace(sampleSpace)
	if err != nil {
		return nil, err
	}
	sampleScale := sampleResult.GrandValue()
	sampleSigma := belief.SigmaFromScale(sampleScale)
	if sampleSigma <= 0 {
		sampleSigma = 1
	}
	sampleModel, err := belief.NewModel(sampleSpace, sampleSigma)
	if err != nil {
		return nil, err
	}
	sampleGen := speech.NewGenerator(sampleSpace, prefs, speech.PercentFormat)
	cache, err := sampling.NewCache(sampleSpace)
	if err != nil {
		return nil, err
	}
	batch := make([]int, 8192)
	scanner := table.NewSequentialScanner(flights.Table())
	for {
		got := table.FillBatch(scanner, batch)
		if got == 0 {
			break
		}
		cache.InsertBatch(batch[:got])
	}
	mkTree := func(seed int64) (*mcts.Tree, error) {
		rng := rand.New(rand.NewSource(seed))
		evalRng := rand.New(rand.NewSource(seed + 1))
		eval := func(sp *speech.Speech) (float64, bool) {
			a, ok := cache.PickAggregate(evalRng)
			if !ok {
				return 0, false
			}
			e, ok := cache.Estimate(a, evalRng)
			if !ok {
				return 0, false
			}
			return sampleModel.Reward(sp, a, e), true
		}
		return mcts.NewTreeWithCap(sampleGen, speech.SpeechScale(sampleScale), eval, rng, 100000)
	}
	ctx := context.Background()
	treeNodes := 0
	measure := func() (time.Duration, error) {
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			tree, terr := mkTree(cfg.Seed + int64(rep))
			if terr != nil {
				return 0, terr
			}
			start := time.Now()
			_, terr = tree.SampleBatch(ctx, rounds)
			d := time.Since(start)
			if terr != nil {
				return 0, terr
			}
			if best == 0 || d < best {
				best = d
			}
			treeNodes = tree.NodeCount()
		}
		return best, nil
	}
	sampleNs, err := measure()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	// Allocations per steady-state round.
	tree, err := mkTree(cfg.Seed + 17)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Warm up memoized texts and deltas so steady-state rounds are what
	// gets counted.
	if _, err := tree.SampleBatch(ctx, 64); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := tree.SampleBatch(ctx, rounds); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	runtime.ReadMemStats(&after)

	perSpeech := func(d time.Duration) float64 {
		if scored == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(scored)
	}
	res := &PlannerResult{
		Rows:       flights.Table().NumRows(),
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Query:      "-," + dims,
		Aggregates: space.Size(),

		SpeechesScored:    scored,
		ScalarQualityNs:   scalarNs.Nanoseconds(),
		ScorerQualityNs:   scorerNs.Nanoseconds(),
		ScalarNsPerSpeech: perSpeech(scalarNs),
		ScorerNsPerSpeech: perSpeech(scorerNs),
		IdenticalChoice:   identical,

		SamplingQuery:  "-,RD",
		TreeNodes:      treeNodes,
		Rounds:         rounds,
		SampleNs:       sampleNs.Nanoseconds(),
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / float64(rounds),
	}
	if scorerBest != nil {
		res.BestSpeech = scorerBest.MainText()
	}
	if scorerNs > 0 {
		res.ScorerSpeedup = float64(scalarNs) / float64(scorerNs)
	}
	if sampleNs > 0 {
		res.RoundsPerSec = float64(rounds) / sampleNs.Seconds()
	}
	return res, nil
}

// WriteJSON writes the result as indented JSON.
func (r *PlannerResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintPlanner prints the human-readable summary.
func PrintPlanner(w io.Writer, r *PlannerResult) {
	fmt.Fprintf(w, "Planner — %d rows, %d aggregates (%d CPUs, GOMAXPROCS %d), query %s\n",
		r.Rows, r.Aggregates, r.NumCPU, r.Gomaxprocs, r.Query)
	fmt.Fprintf(w, "  exhaustive search over %d speeches (identical choice: %v)\n",
		r.SpeechesScored, r.IdenticalChoice)
	fmt.Fprintf(w, "    scalar model:       %10.0f ns/speech\n", r.ScalarNsPerSpeech)
	fmt.Fprintf(w, "    incremental scorer: %10.0f ns/speech  (%.2fx vs scalar)\n",
		r.ScorerNsPerSpeech, r.ScorerSpeedup)
	fmt.Fprintf(w, "  UCT sampling on %s, %d rounds (%d tree nodes)\n",
		r.SamplingQuery, r.Rounds, r.TreeNodes)
	fmt.Fprintf(w, "    %10.0f rounds/s, %.1f allocs/round\n", r.RoundsPerSec, r.AllocsPerRound)
}
