package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
)

// mutexWaitMetric is the cumulative time goroutines have spent blocked on
// sync.Mutex/RWMutex: the direct contention evidence each sweep point
// records alongside its throughput.
const mutexWaitMetric = "/sync/mutex/wait/total:seconds"

// contentionProbe snapshots the runtime's lock-wait and GC counters so a
// measurement can report deltas over its own interval.
type contentionProbe struct {
	mutexWaitNs int64
	gcPauseNs   uint64
	mallocs     uint64
}

func probeContention() contentionProbe {
	sample := []rtmetrics.Sample{{Name: mutexWaitMetric}}
	rtmetrics.Read(sample)
	var p contentionProbe
	if sample[0].Value.Kind() == rtmetrics.KindFloat64 {
		p.mutexWaitNs = int64(sample[0].Value.Float64() * 1e9)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcPauseNs = ms.PauseTotalNs
	p.mallocs = ms.Mallocs
	return p
}

// ScalingConfig parameterizes the multicore scaling sweep.
type ScalingConfig struct {
	// Rows is the flight dataset size (<= 0 selects DefaultBenchFlightRows).
	Rows int
	// Seed drives dataset generation and all sampling RNGs.
	Seed int64
	// Rounds is the number of MCTS rounds per sweep point (<= 0 selects
	// 20000).
	Rounds int
	// Workers and Gomaxprocs are the sweep axes (empty selects 1/2/4/8).
	// Points whose GOMAXPROCS exceeds the machine's CPU count are skipped
	// with a note rather than measured: throughput numbers taken on
	// oversubscribed virtual processors are scheduler noise, not results.
	Workers    []int
	Gomaxprocs []int
}

// SweepPoint is one (workers, GOMAXPROCS) cell of the scaling grid. All
// speedups are relative to the 1-worker cell at the same GOMAXPROCS, and
// efficiency divides the speedup by the worker count (1.0 = ideal linear
// scaling).
type SweepPoint struct {
	Workers    int `json:"workers"`
	Gomaxprocs int `json:"gomaxprocs"`

	// Virtual-loss parallel UCT sampling on the region-by-season tree.
	MctsRoundsPerSec   float64 `json:"mcts_rounds_per_sec"`
	MctsP50Ns          int64   `json:"mcts_p50_ns"`
	MctsP99Ns          int64   `json:"mcts_p99_ns"`
	MctsAllocsPerRound float64 `json:"mcts_allocs_per_round"`
	MctsSpeedup        float64 `json:"mcts_speedup"`
	MctsEfficiency     float64 `json:"mcts_efficiency"`

	// Exact evaluation (EvaluateSpaceWorkers) over the full table.
	EvalRowsPerSec float64 `json:"eval_rows_per_sec"`
	EvalSpeedup    float64 `json:"eval_speedup"`
	EvalEfficiency float64 `json:"eval_efficiency"`

	// Epoch-local background sampler draining the full table.
	SamplerRowsPerSec float64 `json:"sampler_rows_per_sec"`
	SamplerSpeedup    float64 `json:"sampler_speedup"`
	SamplerEfficiency float64 `json:"sampler_efficiency"`

	// Contention evidence over the whole point's measurement interval.
	MutexWaitNs int64 `json:"mutex_wait_ns"`
	GCPauseNs   int64 `json:"gc_pause_ns"`
}

// ScalingResult is the machine-readable record of the multicore scaling
// sweep. benchrunner -exp scaling writes it to BENCH_scaling.json.
type ScalingResult struct {
	Rows int `json:"rows"`
	// NumCPU and Gomaxprocs pin the machine the numbers were taken on:
	// cross-machine comparisons of scaling curves are meaningless without
	// them. Gomaxprocs is the process default outside the sweep.
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Query      string `json:"query"`
	Rounds     int    `json:"rounds"`
	TreeNodes  int    `json:"tree_nodes"`

	// OneWorkerIdentical must be true: the 1-worker parallel paths
	// (SampleParallelBatch, EvaluateSpaceWorkers) produce byte-identical
	// results to their sequential references, so the sweep's baseline IS
	// the sequential planner.
	OneWorkerIdentical bool `json:"one_worker_identical"`

	Points []SweepPoint `json:"points"`
	// SkipNotes lists the grid cells that were not measured and why —
	// single-CPU runners keep their honest "no speedup to report here"
	// record instead of fabricating one.
	SkipNotes []string `json:"skip_notes,omitempty"`
}

// sweepEnv bundles the fixtures every sweep point reuses.
type sweepEnv struct {
	cfg     ScalingConfig
	flights *olap.Dataset
	space   *olap.Space
	scale   float64
	model   *belief.Model
	gen     *speech.Generator
	rounds  int
}

func newSweepEnv(cfg ScalingConfig) (*sweepEnv, error) {
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
	q, err := setup.FlightsQuery("-", "RD")
	if err != nil {
		return nil, err
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
	return &sweepEnv{
		cfg:     cfg,
		flights: flights,
		space:   space,
		scale:   scale,
		model:   model,
		gen:     speech.NewGenerator(space, speech.DefaultPrefs(), speech.PercentFormat),
		rounds:  rounds,
	}, nil
}

// mkTree builds a planning tree whose rewards come from exact estimates
// jittered only by aggregate choice — the same shape the planner samples,
// with per-worker reward kernels via SeededEvalFactory.
func (e *sweepEnv) mkTree(seed int64) (*mcts.Tree, error) {
	rng := rand.New(rand.NewSource(seed))
	result, err := olap.EvaluateSpaceSequential(e.space)
	if err != nil {
		return nil, err
	}
	eval := func(sp *speech.Speech) (float64, bool) {
		a := rng.Intn(e.space.Size())
		return e.model.Reward(sp, a, result.Value(a)), true
	}
	tree, err := mcts.NewTreeWithCap(e.gen, speech.SpeechScale(e.scale), eval, rng, 100000)
	if err != nil {
		return nil, err
	}
	tree.SeededEvalFactory = func() mcts.SeededEvalFunc {
		k := e.model.NewRewardKernel()
		return func(sp *speech.Speech, wrng *rand.Rand) (float64, bool) {
			a := wrng.Intn(e.space.Size())
			return k.Reward(sp, a, result.Value(a)), true
		}
	}
	return tree, nil
}

// measureMcts runs the tree sampler at the given worker count, reporting
// total duration, sub-batch p50/p99, and allocations per round.
func (e *sweepEnv) measureMcts(workers int) (total time.Duration, p50, p99 int64, allocs float64, nodes int, err error) {
	tree, err := e.mkTree(e.cfg.Seed + 3)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	ctx := context.Background()
	// Warm up memoized speech texts and deltas.
	if _, err = tree.SampleParallelBatch(ctx, 256, workers); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	const subBatches = 32
	sub := e.rounds / subBatches
	if sub < 1 {
		sub = 1
	}
	durations := make([]time.Duration, 0, subBatches)
	rounds := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < subBatches; i++ {
		start := time.Now()
		if _, err = tree.SampleParallelBatch(ctx, sub, workers); err != nil {
			return 0, 0, 0, 0, 0, err
		}
		d := time.Since(start)
		durations = append(durations, d)
		total += d
		rounds += sub
	}
	runtime.ReadMemStats(&after)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	p50 = durations[len(durations)/2].Nanoseconds()
	p99 = durations[(len(durations)*99)/100].Nanoseconds()
	allocs = float64(after.Mallocs-before.Mallocs) / float64(rounds)
	return total, p50, p99, allocs, tree.NodeCount(), nil
}

// measureEval times EvaluateSpaceWorkers over the full table.
func (e *sweepEnv) measureEval(workers int) (time.Duration, error) {
	var err error
	d := timeBest(3, func() {
		if _, eerr := olap.EvaluateSpaceWorkers(e.space, workers); eerr != nil {
			err = eerr
		}
	})
	return d, err
}

// measureSampler drains the full table through an epoch-local background
// sampler with the given worker count.
func (e *sweepEnv) measureSampler(workers int) (time.Duration, error) {
	var best time.Duration
	for rep := 0; rep < 2; rep++ {
		es, err := sampling.NewEpochSampler(e.space, rand.New(rand.NewSource(e.cfg.Seed+7)), workers, 8192)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		es.Start()
		<-es.Done()
		d := time.Since(start)
		es.Stop()
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// oneWorkerIdentical checks the sweep's exactness baseline: the 1-worker
// parallel tree is byte-identical to the sequential sampler (same visits,
// same reward bits, same node count) and the 1-worker scan returns the
// sequential result bit for bit.
func (e *sweepEnv) oneWorkerIdentical() (bool, error) {
	seqTree, err := e.mkTree(e.cfg.Seed + 11)
	if err != nil {
		return false, err
	}
	parTree, err := e.mkTree(e.cfg.Seed + 11)
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	const rounds = 2000
	if _, err := seqTree.SampleBatch(ctx, rounds); err != nil {
		return false, err
	}
	if _, err := parTree.SampleParallelBatch(ctx, rounds, 1); err != nil {
		return false, err
	}
	if seqTree.Root().Visits() != parTree.Root().Visits() ||
		seqTree.Root().Reward() != parTree.Root().Reward() ||
		seqTree.NodeCount() != parTree.NodeCount() {
		return false, nil
	}
	seq, err := olap.EvaluateSpaceSequential(e.space)
	if err != nil {
		return false, err
	}
	par, err := olap.EvaluateSpaceWorkers(e.space, 1)
	if err != nil {
		return false, err
	}
	for a := 0; a < e.space.Size(); a++ {
		if seq.Count(a) != par.Count(a) || seq.Sum(a) != par.Sum(a) {
			return false, nil
		}
	}
	return true, nil
}

// ScalingSweep measures MCTS sampling, exact evaluation, and background
// sampling throughput over a workers x GOMAXPROCS grid: the per-worker
// speedup curve the contention work is judged by. GOMAXPROCS is changed
// process-wide per column and restored afterwards, so nothing else should
// run concurrently with the sweep.
func ScalingSweep(cfg ScalingConfig) (*ScalingResult, error) {
	workersAxis := cfg.Workers
	if len(workersAxis) == 0 {
		workersAxis = []int{1, 2, 4, 8}
	}
	procsAxis := cfg.Gomaxprocs
	if len(procsAxis) == 0 {
		procsAxis = []int{1, 2, 4, 8}
	}
	env, err := newSweepEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{
		Rows:       env.flights.Table().NumRows(),
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Query:      "-,RD",
		Rounds:     env.rounds,
	}
	identical, err := env.oneWorkerIdentical()
	if err != nil {
		return nil, err
	}
	res.OneWorkerIdentical = identical
	if runtime.NumCPU() < 2 {
		res.SkipNotes = append(res.SkipNotes,
			"single-CPU runner: points with workers > 1 measure oversubscription overhead on one core, not parallel speedup — expect <= 1x")
	}

	baseProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(baseProcs)
	for _, procs := range procsAxis {
		if procs > runtime.NumCPU() {
			res.SkipNotes = append(res.SkipNotes, fmt.Sprintf(
				"GOMAXPROCS=%d column skipped: machine has %d CPU(s); oversubscribed throughput is scheduler noise, not a result",
				procs, runtime.NumCPU()))
			continue
		}
		runtime.GOMAXPROCS(procs)
		// The per-column 1-worker baselines speedups are relative to.
		var mctsBase, evalBase, samplerBase time.Duration
		for _, workers := range workersAxis {
			probe := probeContention()
			mctsNs, p50, p99, allocs, nodes, err := env.measureMcts(workers)
			if err != nil {
				runtime.GOMAXPROCS(baseProcs)
				return nil, err
			}
			res.TreeNodes = nodes
			evalNs, err := env.measureEval(workers)
			if err != nil {
				runtime.GOMAXPROCS(baseProcs)
				return nil, err
			}
			samplerNs, err := env.measureSampler(workers)
			if err != nil {
				runtime.GOMAXPROCS(baseProcs)
				return nil, err
			}
			after := probeContention()
			if workers == 1 {
				mctsBase, evalBase, samplerBase = mctsNs, evalNs, samplerNs
			}
			p := SweepPoint{
				Workers:            workers,
				Gomaxprocs:         procs,
				MctsP50Ns:          p50,
				MctsP99Ns:          p99,
				MctsAllocsPerRound: allocs,
				MutexWaitNs:        after.mutexWaitNs - probe.mutexWaitNs,
				GCPauseNs:          int64(after.gcPauseNs - probe.gcPauseNs),
			}
			if mctsNs > 0 {
				p.MctsRoundsPerSec = float64(env.rounds) / mctsNs.Seconds()
			}
			if evalNs > 0 {
				p.EvalRowsPerSec = float64(res.Rows) / evalNs.Seconds()
			}
			if samplerNs > 0 {
				p.SamplerRowsPerSec = float64(res.Rows) / samplerNs.Seconds()
			}
			if mctsBase > 0 && mctsNs > 0 {
				p.MctsSpeedup = float64(mctsBase) / float64(mctsNs)
				p.MctsEfficiency = p.MctsSpeedup / float64(workers)
			}
			if evalBase > 0 && evalNs > 0 {
				p.EvalSpeedup = float64(evalBase) / float64(evalNs)
				p.EvalEfficiency = p.EvalSpeedup / float64(workers)
			}
			if samplerBase > 0 && samplerNs > 0 {
				p.SamplerSpeedup = float64(samplerBase) / float64(samplerNs)
				p.SamplerEfficiency = p.SamplerSpeedup / float64(workers)
			}
			res.Points = append(res.Points, p)
		}
	}
	runtime.GOMAXPROCS(baseProcs)
	if len(res.Points) == 0 {
		res.SkipNotes = append(res.SkipNotes,
			"no sweep points ran: every requested GOMAXPROCS exceeds the CPU count")
	}
	return res, nil
}

// WriteJSON writes the result as indented JSON.
func (r *ScalingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintScalingSweep prints the human-readable scaling table.
func PrintScalingSweep(w io.Writer, r *ScalingResult) {
	fmt.Fprintf(w, "Multicore scaling — %d rows, %d MCTS rounds/point (%d CPUs, base GOMAXPROCS %d), query %s\n",
		r.Rows, r.Rounds, r.NumCPU, r.Gomaxprocs, r.Query)
	fmt.Fprintf(w, "  1-worker parallel paths byte-identical to sequential: %v\n", r.OneWorkerIdentical)
	if len(r.Points) > 0 {
		fmt.Fprintf(w, "  %5s %5s %14s %8s %6s %14s %8s %14s %8s %12s %10s\n",
			"procs", "wrk", "mcts rnd/s", "speedup", "eff", "eval rows/s", "speedup", "smplr rows/s", "speedup", "mutex wait", "allocs/rnd")
		for _, p := range r.Points {
			fmt.Fprintf(w, "  %5d %5d %14.0f %7.2fx %6.2f %14.0f %7.2fx %14.0f %7.2fx %12s %10.1f\n",
				p.Gomaxprocs, p.Workers,
				p.MctsRoundsPerSec, p.MctsSpeedup, p.MctsEfficiency,
				p.EvalRowsPerSec, p.EvalSpeedup,
				p.SamplerRowsPerSec, p.SamplerSpeedup,
				time.Duration(p.MutexWaitNs).Round(time.Microsecond),
				p.MctsAllocsPerRound)
		}
	}
	for _, note := range r.SkipNotes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}
