package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

type env struct {
	space  *olap.Space
	gen    *speech.Generator
	model  *belief.Model
	result *olap.Result
}

func newEnv(t testing.TB) *env {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 10000, Seed: 41})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	r, err := olap.EvaluateSpace(s)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	m, err := belief.NewModel(s, belief.SigmaFromScale(r.GrandValue()))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	// A reduced percent menu keeps test trees small (the full menu is
	// exercised in the core package's integration tests).
	gen := speech.NewGenerator(s, speech.DefaultPrefs(), speech.PercentFormat)
	gen.Percents = []int{50, 100}
	return &env{
		space:  s,
		gen:    gen,
		model:  m,
		result: r,
	}
}

// exactEval scores speeches with exact quality: deterministic ground truth
// for tree-behaviour tests.
func (e *env) exactEval() EvalFunc {
	return func(s *speech.Speech) (float64, bool) {
		return e.model.Quality(s, e.result), true
	}
}

func TestNewTreeValidation(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewTree(nil, 1, e.exactEval(), rng); err == nil {
		t.Error("nil generator should fail")
	}
	if _, err := NewTree(e.gen, 1, nil, rng); err == nil {
		t.Error("nil evaluator should fail")
	}
	if _, err := NewTree(e.gen, 1, e.exactEval(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestTreeStructure(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(2))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	root := tree.Root()
	if tree.Speech(root).Preamble == nil {
		t.Error("root should carry the preamble")
	}
	if len(root.Children) == 0 {
		t.Fatal("root should have baseline children")
	}
	for _, c := range root.Children {
		if tree.Speech(c).Baseline == nil {
			t.Error("first level should set baselines")
		}
		if c.Parent != root {
			t.Error("parent link broken")
		}
	}
	// Depth = 1 baseline + MaxFragments refinements.
	wantDepth := 1 + e.gen.Prefs.MaxFragments
	if got := tree.Depth(); got != wantDepth {
		t.Errorf("depth = %d, want %d", got, wantDepth)
	}
	if tree.NodeCount() <= len(root.Children) {
		t.Error("tree should be expanded beyond the first level")
	}
}

func TestTreeRespectsFragmentLimit(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(3))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	var walk func(n *Node)
	walk = func(n *Node) {
		sp := tree.Speech(n)
		if len(sp.Refinements) > e.gen.Prefs.MaxFragments {
			t.Fatalf("node exceeds fragment limit: %q", sp.MainText())
		}
		if !sp.Valid(e.gen.Prefs) && sp.Baseline != nil {
			t.Fatalf("invalid speech in tree: %q", sp.MainText())
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
}

func TestSampleUpdatesPathStatistics(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(4))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if !tree.Sample() {
		t.Fatal("sample with always-ok evaluator should succeed")
	}
	if tree.Root().Visits() != 1 {
		t.Errorf("root visits = %d, want 1", tree.Root().Visits())
	}
	visited := 0
	for _, c := range tree.Root().Children {
		visited += int(c.Visits())
	}
	if visited != 1 {
		t.Errorf("exactly one child should be visited, got %d", visited)
	}
	for i := 0; i < 50; i++ {
		tree.Sample()
	}
	if tree.Root().Visits() != 51 {
		t.Errorf("root visits = %d, want 51", tree.Root().Visits())
	}
	if tree.Root().MeanReward() <= 0 {
		t.Error("mean reward should be positive with exact evaluator")
	}
}

func TestSampleSkippedWhenEvalUnavailable(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(5))
	never := func(*speech.Speech) (float64, bool) { return 0, false }
	tree, _ := NewTree(e.gen, e.result.GrandValue(), never, rng)
	if tree.Sample() {
		t.Error("sample should report failure")
	}
	if tree.Root().Visits() != 0 {
		t.Error("failed sample must not update statistics")
	}
}

// TestSampleBatchCancellation checks that SampleBatch stops at the first
// round boundary after ctx is cancelled, reports ctx.Err(), and leaves
// statistics for exactly the rounds it completed.
func TestSampleBatchCancellation(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	eval := func(s *speech.Speech) (float64, bool) {
		if calls++; calls == 20 {
			cancel()
		}
		return e.model.Quality(s, e.result), true
	}
	tree, err := NewTree(e.gen, e.result.GrandValue(), eval, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	const rounds = 1 << 20 // would take far too long without cancellation
	done, err := tree.SampleBatch(ctx, rounds)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if done != 20 {
		t.Errorf("done = %d, want the 20 rounds before cancellation", done)
	}
	if got := tree.Root().Visits(); got != int64(done) {
		t.Errorf("root visits = %d, want done rounds %d", got, done)
	}
}

func TestUCTPrioritizesUnvisited(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(6))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	n := len(tree.Root().Children)
	// After exactly n samples every root child has been tried once.
	for i := 0; i < n; i++ {
		tree.Sample()
	}
	for _, c := range tree.Root().Children {
		if c.Visits() != 1 {
			t.Fatalf("child visits = %d after %d samples, want 1 each", c.Visits(), n)
		}
	}
}

func TestUCTConvergesToBestSpeech(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(7))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	for i := 0; i < 3000; i++ {
		tree.Sample()
	}
	best := tree.BestChild()
	if best == nil {
		t.Fatal("no best child")
	}
	// The best baseline should be near the true grand value.
	grand := e.result.GrandValue()
	got := tree.Speech(best).Baseline.Value
	if math.Abs(got-grand) > grand {
		t.Errorf("best baseline %v too far from grand value %v", got, grand)
	}
	// And its exact quality should be at least that of every sibling.
	bestQ := e.model.Quality(tree.Speech(best), e.result)
	for _, c := range tree.Root().Children {
		q := e.model.Quality(tree.Speech(c), e.result)
		// Allow near-ties: sampled mean rewards cannot separate speeches
		// whose exact qualities differ by under two percent.
		if q > bestQ*1.02 && c.Visits() > 50 {
			t.Errorf("well-visited sibling %v (q=%v) beats chosen %v (q=%v)",
				tree.Speech(c).Baseline.Value, q, got, bestQ)
		}
	}
}

func TestAdvanceKeepsStatistics(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(8))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	for i := 0; i < 200; i++ {
		tree.Sample()
	}
	best := tree.BestChild()
	visits := best.Visits()
	if visits == 0 {
		t.Fatal("best child should have visits")
	}
	tree.Advance(best)
	if tree.Root() != best {
		t.Error("root should be the advanced child")
	}
	if tree.Root().Visits() != visits {
		t.Error("advance must keep statistics")
	}
	// Sampling continues below the new root.
	before := tree.Root().Visits()
	tree.Sample()
	if tree.Root().Visits() != before+1 {
		t.Error("sampling below the new root should work")
	}
}

func TestAdvancePanicsOnForeignNode(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(9))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Advance(&Node{})
}

func TestBestChildOnLeafRoot(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(10))
	tree, _ := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	// Descend to a leaf.
	for tree.BestChild() != nil {
		tree.Sample()
		tree.Advance(tree.BestChild())
	}
	if !tree.Root().IsLeaf() {
		t.Error("descent should end at a leaf")
	}
	if tree.BestChild() != nil {
		t.Error("leaf root has no best child")
	}
}

func TestLazyExpansionUnderNodeCap(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(11))
	gen := speech.NewGenerator(e.space, speech.DefaultPrefs(), speech.PercentFormat)
	tr, err := NewTree(gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	full := tr.NodeCount()

	capped, err := NewTreeWithCap(gen, e.result.GrandValue(), e.exactEval(), rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	if capped.NodeCount() >= full {
		t.Errorf("capped tree (%d nodes) should be smaller than full tree (%d)",
			capped.NodeCount(), full)
	}
	// Sampling still works and grows the tree lazily.
	before := capped.NodeCount()
	for i := 0; i < 200; i++ {
		capped.Sample()
	}
	if capped.NodeCount() <= before {
		t.Error("lazy expansion should allocate nodes during sampling")
	}
	if capped.Root().Visits() != 200 {
		t.Errorf("root visits = %d, want 200", capped.Root().Visits())
	}
}
