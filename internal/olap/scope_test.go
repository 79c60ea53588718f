package olap

import (
	"sync"
	"testing"

	"repro/internal/dimension"
)

// scopePredSets enumerates a representative predicate menu over the
// fixture: every region, season, city and month, plus mixed pairs and a
// contradictory same-hierarchy pair.
func scopePredSets(f *fixture) [][]*dimension.Member {
	ne := f.airport.FindMember("the North East")
	mw := f.airport.FindMember("the Midwest")
	west := f.airport.FindMember("the West")
	winter := f.date.FindMember("Winter")
	summer := f.date.FindMember("Summer")
	boston := f.airport.Leaf("Boston")
	january := f.date.Leaf("January")
	return [][]*dimension.Member{
		nil,
		{ne}, {mw}, {west}, {winter}, {summer}, {boston}, {january},
		{ne, winter}, {mw, summer}, {west, january},
		{boston, summer},
		{ne, mw},         // contradictory: empty scope
		{boston, ne},     // same hierarchy, nested: Boston
		{winter, summer}, // contradictory on the date hierarchy
	}
}

// TestScopeSetMatchesReference pins the bitset path to the member-walking
// reference implementations of InScope and ScopeSize for every predicate
// set and aggregate, on both the plain and the filtered/city-level space.
func TestScopeSetMatchesReference(t *testing.T) {
	f := newFixture(t)
	spaces := []*Space{}
	s1, err := NewSpace(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	spaces = append(spaces, s1)
	q := f.regionSeasonQuery()
	q.GroupBy[0].Level = 2 // city x season
	s2, err := NewSpace(f.dataset, q)
	if err != nil {
		t.Fatalf("NewSpace city: %v", err)
	}
	spaces = append(spaces, s2)

	for si, s := range spaces {
		for _, preds := range scopePredSets(f) {
			ss := s.ScopeSet(preds)
			wantSize := 0
			for idx := 0; idx < s.Size(); idx++ {
				want := s.inScopeRef(idx, preds)
				if want {
					wantSize++
				}
				if got := ss.Contains(idx); got != want {
					t.Fatalf("space %d: ScopeSet.Contains(%d, %v) = %v, want %v",
						si, idx, preds, got, want)
				}
				if got := s.InScope(idx, preds); got != want {
					t.Fatalf("space %d: InScope(%d, %v) = %v, want %v",
						si, idx, preds, got, want)
				}
			}
			if ss.Size() != wantSize {
				t.Errorf("space %d: ScopeSet.Size(%v) = %d, want %d",
					si, preds, ss.Size(), wantSize)
			}
			if got, want := s.ScopeSize(preds), s.scopeSizeRef(preds); got != want {
				t.Errorf("space %d: ScopeSize(%v) = %d, want %d (reference)",
					si, preds, got, want)
			}
		}
	}
}

// TestScopeSetCached verifies that repeated requests for the same
// predicate list return the identical cached bitset.
func TestScopeSetCached(t *testing.T) {
	f := newFixture(t)
	s, err := NewSpace(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	ne := f.airport.FindMember("the North East")
	preds := []*dimension.Member{ne}
	a := s.ScopeSet(preds)
	b := s.ScopeSet(preds)
	if a != b {
		t.Error("same predicate list should return the cached ScopeSet")
	}
	// A fresh (equal) slice hits the same cache entry too.
	c := s.ScopeSet([]*dimension.Member{ne})
	if a != c {
		t.Error("equal predicate list should hit the cache")
	}
}

// TestScopeSetConcurrent exercises concurrent first-touch resolution of
// overlapping scopes — concurrent answers sharing a cached view's Space —
// under the race detector.
func TestScopeSetConcurrent(t *testing.T) {
	f := newFixture(t)
	s, err := NewSpace(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	sets := scopePredSets(f)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				preds := sets[(w+i)%len(sets)]
				ss := s.ScopeSet(preds)
				total := 0
				for idx := 0; idx < s.Size(); idx++ {
					if ss.Contains(idx) {
						total++
					}
				}
				if total != ss.Size() {
					t.Errorf("popcount %d != Size %d", total, ss.Size())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
