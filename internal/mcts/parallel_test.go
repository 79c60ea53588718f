package mcts

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/speech"
)

// TestParallelOneWorkerGolden is the fixed-seed golden proof that one
// parallel worker reproduces the sequential planner byte for byte: same
// visit counts and bit-identical rewards on every node.
func TestParallelOneWorkerGolden(t *testing.T) {
	const rounds = 400
	e1, e2 := newEnv(t), newEnv(t)
	seq, err := NewTree(e1.gen, e1.result.GrandValue(), e1.exactEval(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	par, err := NewTree(e2.gen, e2.result.GrandValue(), e2.exactEval(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	ctx := context.Background()
	doneSeq, err1 := seq.SampleBatch(ctx, rounds)
	donePar, err2 := par.SampleParallelBatch(ctx, rounds, 1)
	if err1 != nil || err2 != nil {
		t.Fatalf("batch errors: %v, %v", err1, err2)
	}
	if doneSeq != donePar {
		t.Fatalf("done rounds: sequential %d, one-worker parallel %d", doneSeq, donePar)
	}
	var walk func(a, b *Node, path string)
	walk = func(a, b *Node, path string) {
		if a.Visits() != b.Visits() {
			t.Fatalf("%s: visits %d != %d", path, a.Visits(), b.Visits())
		}
		if math.Float64bits(a.Reward()) != math.Float64bits(b.Reward()) {
			t.Fatalf("%s: reward %v not bit-identical to %v", path, a.Reward(), b.Reward())
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("%s: child count %d != %d", path, len(a.Children), len(b.Children))
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i], path+"/"+string(rune('0'+i%10)))
		}
	}
	walk(seq.Root(), par.Root(), "root")
}

// checkTreeInvariants walks the tree after a parallel batch: the root's
// visits equal the reward-producing rounds, every expanded non-leaf
// node's visits equal the sum of its children's visits (each visit
// descends), and each node's reward is the sum of its children's rewards
// plus rewards of rounds terminating at the node itself (zero for
// non-leaf nodes, so rewards must telescope within FP reassociation
// tolerance).
func checkTreeInvariants(t *testing.T, tree *Tree, done int) {
	t.Helper()
	if got := tree.Root().Visits(); got != int64(done) {
		t.Errorf("root visits = %d, want done rounds %d", got, done)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		var visits int64
		var reward float64
		for _, c := range n.Children {
			visits += c.Visits()
			reward += c.Reward()
			if c.Visits() < 0 {
				t.Errorf("negative visits %d", c.Visits())
			}
			if c.Visits() == 0 && c.Reward() != 0 {
				t.Errorf("unvisited child has reward %v", c.Reward())
			}
		}
		if visits != n.Visits() {
			t.Errorf("node visits %d != children sum %d", n.Visits(), visits)
		}
		if math.Abs(reward-n.Reward()) > 1e-6*(1+math.Abs(n.Reward())) {
			t.Errorf("node reward %v != children sum %v", n.Reward(), reward)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestParallelInvariants runs a 4-worker batch (exercised under -race and
// -cpu 1,4 in CI) and checks visit/reward accounting.
func TestParallelInvariants(t *testing.T) {
	e := newEnv(t)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	const rounds = 600
	done, err := tree.SampleParallelBatch(context.Background(), rounds, 4)
	if err != nil {
		t.Fatalf("SampleParallelBatch: %v", err)
	}
	if done != rounds {
		t.Fatalf("done = %d, want %d (always-ok evaluator)", done, rounds)
	}
	checkTreeInvariants(t, tree, done)
	if tree.Root().MeanReward() <= 0 {
		t.Error("mean reward should be positive with exact evaluator")
	}
}

// TestParallelSeededEval verifies the seeded evaluator is preferred and
// receives per-worker RNGs.
func TestParallelSeededEval(t *testing.T) {
	e := newEnv(t)
	var seededCalls, plainCalls atomic.Int64
	plain := func(s *speech.Speech) (float64, bool) {
		plainCalls.Add(1)
		return e.model.Quality(s, e.result), true
	}
	tree, err := NewTree(e.gen, e.result.GrandValue(), plain, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	tree.SeededEval = func(s *speech.Speech, rng *rand.Rand) (float64, bool) {
		if rng == nil {
			t.Error("seeded eval should receive a worker RNG")
		}
		seededCalls.Add(1)
		return e.model.Quality(s, e.result), true
	}
	const rounds = 200
	done, err := tree.SampleParallelBatch(context.Background(), rounds, 3)
	if err != nil {
		t.Fatalf("SampleParallelBatch: %v", err)
	}
	if done != rounds || seededCalls.Load() != rounds {
		t.Errorf("done %d, seeded calls %d, want %d", done, seededCalls.Load(), rounds)
	}
	if plainCalls.Load() != 0 {
		t.Errorf("sequential evaluator called %d times despite SeededEval", plainCalls.Load())
	}
	checkTreeInvariants(t, tree, done)
}

// TestParallelEvalFailureLeavesNoTrace checks the virtual-loss revert: a
// batch whose evaluations never produce rewards must leave every node's
// statistics at zero, exactly like the sequential sampler.
func TestParallelEvalFailureLeavesNoTrace(t *testing.T) {
	e := newEnv(t)
	never := func(*speech.Speech) (float64, bool) { return 0, false }
	tree, err := NewTree(e.gen, e.result.GrandValue(), never, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	done, err := tree.SampleParallelBatch(context.Background(), 300, 4)
	if err != nil {
		t.Fatalf("SampleParallelBatch: %v", err)
	}
	if done != 0 {
		t.Errorf("done = %d, want 0", done)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Visits() != 0 || n.Reward() != 0 {
			t.Fatalf("node retains statistics after failed rounds: visits %d reward %v",
				n.Visits(), n.Reward())
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestParallelCancellation checks that a cancelled context stops the
// batch early and is reported.
func TestParallelCancellation(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	tree.SeededEval = func(s *speech.Speech, rng *rand.Rand) (float64, bool) {
		if calls.Add(1) == 20 {
			cancel()
		}
		return e.model.Quality(s, e.result), true
	}
	const rounds = 1 << 20 // would take far too long without cancellation
	done, err := tree.SampleParallelBatch(ctx, rounds, 4)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if done >= rounds {
		t.Errorf("done = %d, cancellation should cut the batch short", done)
	}
	checkTreeInvariants(t, tree, done)
}

// TestParallelLazyExpansionRace drives many workers through a tightly
// node-capped tree so lazy expansion happens *during* the parallel batch;
// run under -race this is the expansion-guard test.
func TestParallelLazyExpansionRace(t *testing.T) {
	e := newEnv(t)
	tree, err := NewTreeWithCap(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(17)), 30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	before := tree.NodeCount()
	const rounds = 500
	done, err := tree.SampleParallelBatch(context.Background(), rounds, 8)
	if err != nil {
		t.Fatalf("SampleParallelBatch: %v", err)
	}
	if done != rounds {
		t.Errorf("done = %d, want %d", done, rounds)
	}
	if tree.NodeCount() <= before {
		t.Error("lazy expansion should allocate nodes during the parallel batch")
	}
	checkTreeInvariants(t, tree, done)
}

// TestParallelPathPoolingAblation checks the DisablePathPooling knob
// changes allocations only, not behavior.
func TestParallelPathPoolingAblation(t *testing.T) {
	const rounds = 300
	e1, e2 := newEnv(t), newEnv(t)
	pooled, err := NewTree(e1.gen, e1.result.GrandValue(), e1.exactEval(), rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	plain, err := NewTree(e2.gen, e2.result.GrandValue(), e2.exactEval(), rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	plain.DisablePathPooling = true
	d1, _ := pooled.SampleBatch(context.Background(), rounds)
	d2, _ := plain.SampleBatch(context.Background(), rounds)
	if d1 != d2 {
		t.Fatalf("done rounds differ: %d vs %d", d1, d2)
	}
	if pooled.Root().Visits() != plain.Root().Visits() ||
		math.Float64bits(pooled.Root().Reward()) != math.Float64bits(plain.Root().Reward()) {
		t.Error("path pooling must not change sampling behavior")
	}
}
