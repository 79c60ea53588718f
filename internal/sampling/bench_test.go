package sampling

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
)

func benchSpace(b *testing.B, fct olap.AggFunc) *olap.Space {
	b.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 11})
	if err != nil {
		b.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: fct, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	if fct == olap.Count {
		q.Col = ""
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		b.Fatalf("NewSpace: %v", err)
	}
	return s
}

// BenchmarkCacheInsertBatch is the sequential insert reference the merged
// path is measured against.
func BenchmarkCacheInsertBatch(b *testing.B) {
	s := benchSpace(b, olap.Avg)
	c, err := NewCache(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 256)
	n := s.Dataset().Table().NumRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = rng.Intn(n)
		}
		c.InsertBatch(rows)
	}
}

// BenchmarkWorkerAccumulatorFillMerge times one epoch through the
// contention-free path: private classification plus the journal replay.
func BenchmarkWorkerAccumulatorFillMerge(b *testing.B) {
	s := benchSpace(b, olap.Avg)
	c, err := NewCache(s)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorkerAccumulator(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 256)
	n := s.Dataset().Table().NumRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = rng.Intn(n)
		}
		w.InsertBatch(rows)
		c.MergeWorker(w)
		w.Reset()
	}
}
