package sampling

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/table"
)

func TestAsyncSamplerFillsInBackground(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(1))
	a, err := NewAsyncSampler(s, rng, 128)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	a.Start()
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() < 5000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.NrRead() < 5000 {
		t.Fatalf("background scan too slow: %d rows", a.NrRead())
	}
	// Estimates available while scanning.
	agg, ok := a.PickAggregate(rng)
	if !ok {
		t.Fatal("no eligible aggregate")
	}
	if _, ok := a.Estimate(agg, rng); !ok {
		t.Fatal("estimate unavailable")
	}
	if _, ok := a.GrandEstimate(); !ok {
		t.Fatal("grand estimate unavailable")
	}
}

func TestAsyncSamplerDrainsTable(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(2))
	a, err := NewAsyncSampler(s, rng, 4096)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	a.Start()
	n := int64(s.Dataset().Table().NumRows())
	deadline := time.Now().Add(10 * time.Second)
	for a.NrRead() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	if a.NrRead() != n {
		t.Fatalf("read %d of %d rows", a.NrRead(), n)
	}
	// With the full table consumed, the grand estimate is exact.
	exact, _ := olap.EvaluateSpace(s)
	got, ok := a.GrandEstimate()
	if !ok {
		t.Fatal("grand estimate unavailable")
	}
	if math.Abs(got-exact.GrandValue()) > 1e-12 {
		t.Errorf("grand = %v, exact %v", got, exact.GrandValue())
	}
}

func TestAsyncSamplerStopIsIdempotent(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(3))
	a, err := NewAsyncSampler(s, rng, 64)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	// Stop before start: no deadlock.
	a.Stop()
	a.Stop()
	// Start after stop is a no-op scan (channel already closed).
	a.Start()
	a.Stop()
}

func TestAsyncSamplerConcurrentReads(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a, err := NewAsyncSampler(s, rand.New(rand.NewSource(4)), 64)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	a.Start()
	defer a.Stop()
	done := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			if agg, ok := a.PickAggregate(rng); ok {
				a.Estimate(agg, rng)
			}
			a.GrandEstimate()
		}
		close(done)
	}()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		a.NrRead()
		if agg, ok := a.PickAggregate(rng); ok {
			a.Estimate(agg, rng)
		}
	}
	<-done
}

func TestAsyncSamplerPooledInterval(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a, err := NewAsyncSampler(s, rand.New(rand.NewSource(7)), 1024)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	a.Start()
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() < 2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	if _, ok := a.PooledConfidenceInterval(all, 0.95); !ok {
		t.Error("pooled interval unavailable after 2000 rows")
	}
}

// TestAsyncSamplerBitIdenticalToSampler pins the background sampler to the
// synchronous reference: an AsyncSampler drained over a fixed scanner
// stream leaves a cache bit-identical to a Sampler fed the same stream —
// per-aggregate counts, raw value bits, moments and NrRead. Staging each
// batch in a WorkerAccumulator and replaying it under the lock adds no
// numeric deviation, whatever the batch sizes on either side.
func TestAsyncSamplerBitIdenticalToSampler(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Count, olap.Sum, olap.Avg} {
		s := flightsSpace(t, fct)
		tab := s.Dataset().Table()
		n := int64(tab.NumRows())
		const seed = 31

		a, err := NewAsyncSamplerWithScanner(s, table.NewRandomScanner(tab, rand.New(rand.NewSource(seed))), 512)
		if err != nil {
			t.Fatalf("NewAsyncSamplerWithScanner: %v", err)
		}
		a.Start()
		select {
		case <-a.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: background scan did not drain the table", fct)
		}
		a.Stop()

		ref, err := NewSamplerWithScanner(s, table.NewRandomScanner(tab, rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("NewSamplerWithScanner: %v", err)
		}
		for !ref.Exhausted() {
			ref.ReadRows(300)
		}
		if a.NrRead() != n || ref.Cache().NrRead() != n {
			t.Fatalf("%v: read %d (async) and %d (sync) of %d rows", fct, a.NrRead(), ref.Cache().NrRead(), n)
		}
		requireCachesBitIdentical(t, a.cache, ref.Cache(), fct.String())
	}
}
