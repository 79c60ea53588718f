package mcts

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkSampleSequential measures one UCT sampling round.
func BenchmarkSampleSequential(b *testing.B) {
	e := newEnv(b)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tree.SampleBatch(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
}
