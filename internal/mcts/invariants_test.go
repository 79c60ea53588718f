package mcts

import (
	"math/rand"
	"testing"

	"repro/internal/speech"
)

// TestVisitAccountingInvariant: after any number of samples, a parent's
// visit count equals the sum of its children's visits (every sample path
// traverses from root to a leaf), and accumulated rewards are consistent.
func TestVisitAccountingInvariant(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(21))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	for i := 0; i < 500; i++ {
		tree.Sample()
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		var childVisits int64
		var childReward float64
		for _, c := range n.Children {
			childVisits += c.Visits()
			childReward += c.Reward()
		}
		if childVisits != n.Visits() {
			t.Fatalf("node visits %d != sum of child visits %d", n.Visits(), childVisits)
		}
		if diff := childReward - n.Reward(); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("node reward %v != sum of child rewards %v", n.Reward(), childReward)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestRewardBoundsInvariant: with an evaluator bounded in [0,1], every
// mean reward stays in [0,1].
func TestRewardBoundsInvariant(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(22))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	for i := 0; i < 300; i++ {
		tree.Sample()
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Visits() > 0 {
			m := n.MeanReward()
			if m < 0 || m > 1 {
				t.Fatalf("mean reward %v out of [0,1]", m)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestTreeCountMatchesEnumeration: the eagerly expanded tree's node count
// equals 1 (root) + the number of valid speeches reachable by extension —
// cross-validated against a direct recursive enumeration using the same
// generator.
func TestTreeCountMatchesEnumeration(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(23))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	// Direct enumeration: baselines then refinement chains, seeded with
	// the same rounded scale the tree uses.
	count := 1 // root
	scale := speech.SpeechScale(e.result.GrandValue())
	base := e.gen.BaselineCandidates(scale)
	count += len(base)
	// For each baseline, count valid refinement chains of length 1 and 2.
	for _, b := range base {
		baseLen := len(b.Text())
		first := e.gen.Refinements(nil)
		for _, r1 := range first {
			l1 := baseLen + 1 + len(r1.Text())
			if overLimit(e, l1) {
				continue
			}
			count++
			for _, r2 := range e.gen.Refinements(nil) {
				if r2.SameScope(r1) {
					continue
				}
				l2 := l1 + 1 + len(r2.Text())
				if overLimit(e, l2) {
					continue
				}
				count++
			}
		}
	}
	if tree.NodeCount() != count {
		t.Errorf("tree nodes = %d, enumeration = %d", tree.NodeCount(), count)
	}
}

// overLimit applies the character constraint the tree applies.
func overLimit(e *env, mainLen int) bool {
	max := e.gen.Prefs.MaxCharsEffective()
	return max > 0 && mainLen > max
}
