// Package mcts implements the UCT search tree over speech candidates
// (Algorithm 2 of the paper). Nodes represent partial speeches; sampling
// descends from the root via the UCT formula, evaluates the reached leaf
// speech against a database sample, and backs the reward up the path. In
// line with the paper's unusual design choice, the tree is generated in a
// pre-processing step (the fragment limit bounds its height), with a node
// cap as a safety valve that switches to lazy expansion on first visit.
//
// Nodes store only the fragment they add — a baseline or one refinement —
// and materialize their full speech on demand by walking to the root.
// Cloning speeches per node would dominate tree-construction cost.
//
// Statistics live apart from the nodes. Each expanded node owns one block:
// a flat array with one slot per child, in child order, holding the
// child's visits, reward sum and cached mean reward, plus a count of the
// children not yet visited. The block is the only copy of the statistics;
// Node.Visits, Node.Reward and Node.MeanReward read a node's slot in its
// parent's block (the original root's slot lives on the Tree). A UCT step
// is therefore one linear scan over a parent's block instead of a pointer
// chase through the children, and a node is no larger than its structural
// fields.
//
// The block kernel is exact: it picks the same child and makes the same
// RNG draws as the textbook two-pass scan over the nodes, which survives
// in the tests as its oracle. The cached mean is reward/float64(visits),
// recomputed at every backup, so it equals the quotient the scan would
// compute; the exploration term is the same float expression; and the
// strict > keeps first-index tie-breaking. The unvisited count replaces
// the counting pass: the same Intn(unvisited) draw then selects the k-th
// unvisited child in child order.
package mcts

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/speech"
)

// EvalFunc scores a complete candidate speech against one database sample
// (SpeechDBeval). ok is false when no sample-based evaluation is possible
// yet (e.g. no aggregate has cached rows); such rounds update nothing.
type EvalFunc func(s *speech.Speech) (reward float64, ok bool)

// stat is one node's statistics slot in its parent's block.
type stat struct {
	// visits counts tree samples traversing the node.
	visits int64
	// reward accumulates sampled rewards over those visits.
	reward float64
	// mean caches reward/float64(visits); 0 while unvisited.
	mean float64
}

// block holds the statistics of one expanded node's children, one slot
// per child in child order.
type block struct {
	stats []stat
	// unvisited counts the slots with zero visits.
	unvisited int
}

// Node is a search tree node adding one fragment to its parent's speech.
// Its statistics are not fields: they sit in its parent's block (see the
// package comment).
type Node struct {
	// Parent is nil for the root.
	Parent *Node
	// Children are the valid one-fragment extensions.
	Children []*Node
	// stat is the node's slot: in its parent's block, or on the Tree for
	// the original root.
	stat *stat
	// kids holds the children's statistics once the node is expanded
	// (nil for a leaf).
	kids *block
	// baseline is set on first-level nodes.
	baseline *speech.Baseline
	// ref is set on refinement nodes.
	ref *speech.Refinement
	// depth counts refinements on the path (0 for root and baselines).
	depth int
	// mainLen is the running MainText length for O(1) validity checks.
	mainLen int

	// expanded is set once Children has been built (possibly empty).
	expanded bool
	// speechMemo memoizes the materialized speech once requested.
	speechMemo *speech.Speech
}

// IsLeaf reports whether the node has no children. Before expansion a node
// is treated as a leaf only if it is terminal (no valid extensions).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Visits returns the number of tree samples that traversed the node.
func (n *Node) Visits() int64 { return n.stat.visits }

// Reward returns the sum of the rewards sampled through the node.
func (n *Node) Reward() float64 { return n.stat.reward }

// MeanReward returns the node's average sampled reward (0 when unvisited).
func (n *Node) MeanReward() float64 { return n.stat.mean }

// Refinement returns the refinement fragment this node adds (nil for the
// root and baseline nodes).
func (n *Node) Refinement() *speech.Refinement { return n.ref }

// Tree is the speech search tree with its generator and evaluator.
type Tree struct {
	root     *Node
	preamble *speech.Preamble
	gen      *speech.Generator
	eval     EvalFunc
	rng      *rand.Rand
	scale    float64
	// MaxNodes caps eager pre-expansion; deeper nodes expand lazily on
	// first visit.
	MaxNodes int
	// UniformPolicy replaces the UCT child selection with uniform random
	// picks. It exists for the ablation benchmarks quantifying what the
	// exploration/exploitation balance buys.
	UniformPolicy bool

	// rootStat is the original root's statistics slot; every other node's
	// slot lives in its parent's block.
	rootStat  stat
	nodeCount int
	// pathScratch is the pooled descent path of Sample.
	pathScratch []*Node
}

// DefaultMaxNodes bounds eager tree construction. The paper's queries stay
// far below it; the cap protects against pathological member counts.
const DefaultMaxNodes = 200000

// NewTree builds the search tree for the generator's query. scale is the
// value scale that seeds baseline candidates (an early grand estimate, or
// the exact grand value for the optimal baseline). The tree is expanded
// eagerly up to DefaultMaxNodes; use NewTreeWithCap to bound it tighter.
func NewTree(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand) (*Tree, error) {
	return NewTreeWithCap(gen, scale, eval, rng, DefaultMaxNodes)
}

// NewTreeWithCap is NewTree with an explicit eager-expansion node cap
// (maxNodes <= 0 selects DefaultMaxNodes). Nodes beyond the cap expand
// lazily when sampling first reaches them.
func NewTreeWithCap(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand, maxNodes int) (*Tree, error) {
	if gen == nil || eval == nil || rng == nil {
		return nil, errors.New("mcts: generator, evaluator and rng are required")
	}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	t := &Tree{
		preamble: gen.NewPreamble(),
		gen:      gen,
		eval:     eval,
		rng:      rng,
		scale:    scale,
		MaxNodes: maxNodes,
	}
	t.root = &Node{stat: &t.rootStat}
	t.nodeCount = 1
	t.expand(t.root)
	return t, nil
}

// Root returns the current root node.
func (t *Tree) Root() *Node { return t.root }

// NodeCount returns the number of allocated nodes.
func (t *Tree) NodeCount() int { return t.nodeCount }

// Speech materializes the speech represented by node n (which must belong
// to this tree): the preamble, the path's baseline, and its refinements in
// order. The result is memoized on the node.
func (t *Tree) Speech(n *Node) *speech.Speech {
	if n.speechMemo != nil {
		return n.speechMemo
	}
	sp := &speech.Speech{Preamble: t.preamble}
	if n.depth > 0 {
		sp.Refinements = make([]*speech.Refinement, n.depth)
	}
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.ref != nil {
			sp.Refinements[cur.depth-1] = cur.ref
		}
		if cur.baseline != nil {
			sp.Baseline = cur.baseline
		}
	}
	n.speechMemo = sp
	return sp
}

// pathRefinements collects the refinements on the path to n (ordered).
func (n *Node) pathRefinements() []*speech.Refinement {
	if n.depth == 0 {
		return nil
	}
	out := make([]*speech.Refinement, n.depth)
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.ref != nil {
			out[cur.depth-1] = cur.ref
		}
	}
	return out
}

// hasScopeOnPath reports whether any ancestor refinement shares r's scope.
func (n *Node) hasScopeOnPath(r *speech.Refinement) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.ref != nil && cur.ref.SameScope(r) {
			return true
		}
	}
	return false
}

// expand generates the children of n (ST.EXPAND) and recurses while the
// node budget lasts; past the budget, descendants expand lazily. Validity
// (character and fragment limits, duplicate scopes) is checked with O(k)
// incremental state instead of materializing candidate speeches.
func (t *Tree) expand(n *Node) {
	if n.expanded {
		return
	}
	prefs := t.gen.Prefs
	maxChars := prefs.MaxCharsEffective()
	// Children are allocated from one contiguous slab per expansion — a
	// per-expansion arena. One allocation instead of one per child, and a
	// UCT scan over the siblings walks memory linearly. The slab may grow
	// (and copy) while it is built, so pointers are taken only once it is
	// final.
	var slab []Node
	if n.baseline == nil && n.Parent == nil {
		cands := t.gen.BaselineCandidates(speech.SpeechScale(t.scale))
		slab = make([]Node, 0, len(cands))
		for _, b := range cands {
			ln := len(b.Text())
			if maxChars > 0 && ln > maxChars {
				continue
			}
			slab = append(slab, Node{Parent: n, baseline: b, mainLen: ln})
		}
	} else if prefs.MaxFragments <= 0 || n.depth < prefs.MaxFragments {
		cands := t.gen.Refinements(n.pathRefinements())
		slab = make([]Node, 0, len(cands))
		for _, r := range cands {
			ln := n.mainLen + 1 + len(r.Text())
			if maxChars > 0 && ln > maxChars {
				continue
			}
			if n.hasScopeOnPath(r) {
				continue
			}
			slab = append(slab, Node{Parent: n, ref: r, depth: n.depth + 1, mainLen: ln})
		}
	}
	if len(slab) > 0 {
		kids := &block{stats: make([]stat, len(slab)), unvisited: len(slab)}
		children := make([]*Node, len(slab))
		for i := range slab {
			slab[i].stat = &kids.stats[i]
			children[i] = &slab[i]
		}
		t.nodeCount += len(slab)
		n.Children = children
		n.kids = kids
	}
	n.expanded = true
	if t.nodeCount >= t.MaxNodes {
		return
	}
	for _, c := range n.Children {
		t.expand(c)
		if t.nodeCount >= t.MaxNodes {
			return
		}
	}
}

// memoVisits bounds the visit counts whose exploration term maxUCTChild
// memoizes within one scan; a bitmask tracks the filled entries.
const memoVisits = 64

// maxUCTChild returns the child to descend into (ST.MAXUCTCHILD):
// unvisited children first (random pick), otherwise the maximizer of the
// UCT upper confidence bound. It is one pass over n's block: the unvisited
// count replaces a counting pass, scores read the cached means, and the
// exploration term is computed once per distinct small visit count (many
// siblings share one). The package comment gives the exactness argument.
func (t *Tree) maxUCTChild(n *Node) *Node {
	if t.UniformPolicy {
		return n.Children[t.rng.Intn(len(n.Children))]
	}
	stats := n.kids.stats
	if u := n.kids.unvisited; u > 0 {
		k := t.rng.Intn(u)
		for i := range stats {
			if stats[i].visits == 0 {
				if k == 0 {
					return n.Children[i]
				}
				k--
			}
		}
	}
	logN := math.Log(float64(n.stat.visits))
	var memo [memoVisits]float64
	var have uint64
	best := -1
	bestScore := math.Inf(-1)
	for i := range stats {
		v := stats[i].visits
		var explore float64
		if v < memoVisits {
			if have&(1<<v) != 0 {
				explore = memo[v]
			} else {
				explore = math.Sqrt(2 * logN / float64(v))
				memo[v] = explore
				have |= 1 << v
			}
		} else {
			explore = math.Sqrt(2 * logN / float64(v))
		}
		if score := stats[i].mean + explore; score > bestScore {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return n.Children[best]
}

// Sample performs one MCTS round (Algorithm 2's SAMPLE): descend from the
// current root to a leaf via UCT, evaluate the leaf's complete speech
// against a database sample, and update statistics along the path. It
// returns false when the evaluator could not produce a reward (nothing is
// updated then).
func (t *Tree) Sample() bool {
	n := t.root
	// The descent path is pooled across rounds: its length is bounded by
	// the fragment limit, and one slice per round was the planner loop's
	// dominant allocation.
	path := append(t.pathScratch[:0], n)
	for {
		if !n.expanded {
			t.expand(n)
		}
		if n.IsLeaf() {
			break
		}
		n = t.maxUCTChild(n)
		path = append(path, n)
	}
	t.pathScratch = path
	r, ok := t.eval(t.Speech(n))
	if !ok {
		return false
	}
	for _, p := range path {
		p.backup(r)
	}
	return true
}

// backup adds one round's reward to n's slot, refreshing the cached mean
// and, on the first visit, the parent block's unvisited count.
func (n *Node) backup(r float64) {
	s := n.stat
	s.visits++
	s.reward += r
	s.mean = s.reward / float64(s.visits)
	if s.visits == 1 && n.Parent != nil {
		n.Parent.kids.unvisited--
	}
}

// SampleBatch performs up to n sampling rounds, checking ctx between
// rounds so a planner under a deadline stops mid-batch instead of
// finishing it. It returns the number of rounds that produced a reward and
// ctx.Err() when cancellation cut the batch short (nil otherwise).
func (t *Tree) SampleBatch(ctx context.Context, n int) (int, error) {
	done := 0
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return done, ctx.Err()
		default:
		}
		if t.Sample() {
			done++
		}
	}
	return done, nil
}

// BestChild returns the child of the current root with the highest mean
// reward (Algorithm 1's exploitation-only selection for committing to the
// next sentence), or nil when the root is a leaf. Unvisited children rank
// below any visited child; among equally unvisited children the first is
// returned.
func (t *Tree) BestChild() *Node {
	if t.root.kids == nil {
		return nil
	}
	best := -1
	bestScore := math.Inf(-1)
	for i, s := range t.root.kids.stats {
		score := math.Inf(-1)
		if s.visits > 0 {
			score = s.mean
		}
		if best < 0 || score > bestScore {
			best = i
			bestScore = score
		}
	}
	return t.root.Children[best]
}

// Advance makes child the new root, retaining its subtree statistics so
// planning never restarts from scratch (the paper's root-reuse).
// It panics if child is not a child of the current root.
func (t *Tree) Advance(child *Node) {
	for _, c := range t.root.Children {
		if c == child {
			t.root = child
			return
		}
	}
	panic("mcts: Advance target is not a child of the root")
}

// Depth returns the height of the tree below the current root (leaf speech
// length in fragments relative to the root).
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		max := 0
		for _, c := range n.Children {
			if d := walk(c) + 1; d > max {
				max = d
			}
		}
		return max
	}
	return walk(t.root)
}
