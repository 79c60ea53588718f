package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/speech"
)

// maxUCTChildOracle is the reference two-pass scan over the child nodes:
// count the unvisited children, draw one of them uniformly, else maximize
// the UCT bound with the mean recomputed from each child's counters.
// maxUCTChild must pick the same child and make the same RNG draws.
func (t *Tree) maxUCTChildOracle(n *Node) *Node {
	if t.UniformPolicy {
		return n.Children[t.rng.Intn(len(n.Children))]
	}
	unvisited := 0
	for _, c := range n.Children {
		if c.Visits() == 0 {
			unvisited++
		}
	}
	if unvisited > 0 {
		k := t.rng.Intn(unvisited)
		for _, c := range n.Children {
			if c.Visits() == 0 {
				if k == 0 {
					return c
				}
				k--
			}
		}
	}
	logN := math.Log(float64(n.Visits()))
	var best *Node
	bestScore := math.Inf(-1)
	for _, c := range n.Children {
		score := c.Reward()/float64(c.Visits()) + math.Sqrt(2*logN/float64(c.Visits()))
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	return best
}

// checkKernelMatchesOracle runs the kernel and the oracle on n with two
// RNGs seeded alike and fails unless both pick the same child and leave
// their RNGs in the same state.
func checkKernelMatchesOracle(t *testing.T, tree *Tree, n *Node, seed int64) {
	t.Helper()
	saved := tree.rng
	defer func() { tree.rng = saved }()
	kr, or := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	tree.rng = kr
	got := tree.maxUCTChild(n)
	tree.rng = or
	want := tree.maxUCTChildOracle(n)
	if got != want {
		t.Fatalf("kernel picked %p, oracle %p (unvisited %d of %d)", got, want, n.kids.unvisited, len(n.Children))
	}
	if a, b := kr.Int63(), or.Int63(); a != b {
		t.Fatalf("kernel and oracle consumed different RNG draws")
	}
}

// syntheticParent builds a detached parent with k children and an empty
// block, as expand leaves one.
func syntheticParent(k int, root *stat) *Node {
	p := &Node{stat: root}
	p.kids = &block{stats: make([]stat, k), unvisited: k}
	slab := make([]Node, k)
	p.Children = make([]*Node, k)
	for i := range slab {
		slab[i] = Node{Parent: p, stat: &p.kids.stats[i]}
		p.Children[i] = &slab[i]
	}
	return p
}

// TestUCTKernelMatchesOracleRandom is the property test over random
// visit histories: children of random fan-out receive random numbers of
// backups, with some children left unvisited and some cloned from a
// sibling so visit counts and scores tie exactly. Rewards are drawn from
// a coarse grid as well as uniformly, which makes equal means common.
func TestUCTKernelMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree := &Tree{}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(90)
		var rootStat stat
		p := syntheticParent(k, &rootStat)
		unvisitedBias := rng.Float64()
		for i, c := range p.Children {
			if i > 0 && rng.Intn(4) == 0 {
				// Replay a sibling's history: an exact tie.
				src := p.Children[rng.Intn(i)]
				for v := int64(0); v < src.Visits(); v++ {
					c.backup(src.Reward() / float64(src.Visits()))
				}
				continue
			}
			if rng.Float64() < unvisitedBias {
				continue
			}
			visits := 1 + rng.Intn(3)
			if rng.Intn(3) == 0 {
				visits = 1 + rng.Intn(400)
			}
			for v := 0; v < visits; v++ {
				r := rng.Float64()
				if rng.Intn(2) == 0 {
					r = float64(rng.Intn(4)) / 4
				}
				c.backup(r)
			}
		}
		for _, c := range p.Children {
			rootStat.visits += c.Visits()
		}
		rootStat.visits += int64(rng.Intn(5))
		if rootStat.visits == 0 {
			rootStat.visits = 1
		}
		checkKernelMatchesOracle(t, tree, p, rng.Int63())
	}
}

// TestUCTKernelMatchesOracleOnTrees compares kernel and oracle at every
// expanded node of real speech trees while sampling fills them, under
// eager and lazily expanded node caps and across root advances.
func TestUCTKernelMatchesOracleOnTrees(t *testing.T) {
	e := newEnv(t)
	for _, nodeCap := range []int{DefaultMaxNodes, 40} {
		evalRng := rand.New(rand.NewSource(5))
		eval := func(*speech.Speech) (float64, bool) {
			if evalRng.Intn(10) == 0 {
				return 0, false
			}
			return float64(evalRng.Intn(8)) / 8, true
		}
		tree, err := NewTreeWithCap(e.gen, e.result.GrandValue(), eval, rand.New(rand.NewSource(6)), nodeCap)
		if err != nil {
			t.Fatalf("NewTreeWithCap: %v", err)
		}
		seed := int64(0)
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.kids == nil {
				return
			}
			if n.Visits() > 0 {
				seed++
				checkKernelMatchesOracle(t, tree, n, seed)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for sentence := 0; sentence < 3; sentence++ {
			for batch := 0; batch < 6; batch++ {
				if _, err := tree.SampleBatch(context.Background(), 150); err != nil {
					t.Fatalf("SampleBatch: %v", err)
				}
				walk(tree.Root())
			}
			best := tree.BestChild()
			if best == nil {
				break
			}
			tree.Advance(best)
		}
	}
}

// checkBlocks walks the tree below the current root and fails unless
// every block's cached means equal reward/visits bit for bit (0 while
// unvisited) and its unvisited count equals the number of zero-visit
// slots.
func checkBlocks(t *testing.T, tree *Tree) {
	t.Helper()
	var walk func(n *Node)
	walk = func(n *Node) {
		b := n.kids
		if b == nil {
			return
		}
		unvisited := 0
		for i, s := range b.stats {
			want := 0.0
			if s.visits == 0 {
				unvisited++
			} else {
				want = s.reward / float64(s.visits)
			}
			if math.Float64bits(s.mean) != math.Float64bits(want) {
				t.Fatalf("slot %d: cached mean %v, recomputed %v (visits %d)", i, s.mean, want, s.visits)
			}
		}
		if b.unvisited != unvisited {
			t.Fatalf("block unvisited count %d, recounted %d", b.unvisited, unvisited)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
	r := tree.Root().stat
	if r.visits > 0 && math.Float64bits(r.mean) != math.Float64bits(r.reward/float64(r.visits)) {
		t.Fatalf("root cached mean %v, recomputed %v", r.mean, r.reward/float64(r.visits))
	}
}

// TestBlocksConsistentAfterMixedBatches interleaves batches of
// reward-producing and failing rounds (failures update nothing) with lazy
// expansion under a tight node cap and root advances, and checks every
// block after each batch.
func TestBlocksConsistentAfterMixedBatches(t *testing.T) {
	e := newEnv(t)
	evalRng := rand.New(rand.NewSource(8))
	eval := func(s *speech.Speech) (float64, bool) {
		if evalRng.Intn(6) == 0 {
			return 0, false
		}
		return e.model.Quality(s, e.result), true
	}
	for _, nodeCap := range []int{DefaultMaxNodes, 60} {
		tree, err := NewTreeWithCap(e.gen, e.result.GrandValue(), eval, rand.New(rand.NewSource(9)), nodeCap)
		if err != nil {
			t.Fatalf("NewTreeWithCap: %v", err)
		}
		ctx := context.Background()
		for sentence := 0; sentence < 3; sentence++ {
			for batch := 0; batch < 8; batch++ {
				if _, err := tree.SampleBatch(ctx, 40); err != nil {
					t.Fatalf("batch: %v", err)
				}
				checkBlocks(t, tree)
			}
			best := tree.BestChild()
			if best == nil {
				break
			}
			tree.Advance(best)
		}
	}
}
