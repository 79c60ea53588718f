package speech

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
)

func flightsGenerator(t testing.TB, filters ...*dimension.Member) *Generator {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 21})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		Filters:        filters,
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return NewGenerator(s, DefaultPrefs(), PercentFormat)
}

// perScopeCandidates is the number of candidates per predicate scope under
// the default menu: one increase per percent, decreases only below 100%.
func perScopeCandidates() int {
	n := 0
	for _, pct := range DefaultPercents {
		n++
		if pct < 100 {
			n++
		}
	}
	return n
}

func TestGeneratorPreamble(t *testing.T) {
	g := flightsGenerator(t)
	p := g.NewPreamble()
	txt := p.Text()
	for _, frag := range []string{
		"Considering",
		"flights starting from any airport",
		"flights scheduled in any date",
		"flights operated by any airline",
		"broken down by region and season",
	} {
		if !strings.Contains(txt, frag) {
			t.Errorf("preamble missing %q:\n%s", frag, txt)
		}
	}
}

func TestGeneratorPreambleWithFilter(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 21})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport := d.HierarchyByName("start airport")
	ne := airport.FindMember("the North East")
	g := flightsGeneratorWithDataset(t, d, ne)
	txt := g.NewPreamble().Text()
	if !strings.Contains(txt, "flights starting from the North East") {
		t.Errorf("preamble should mention the filter:\n%s", txt)
	}
}

func flightsGeneratorWithDataset(t *testing.T, d *olap.Dataset, filters ...*dimension.Member) *Generator {
	t.Helper()
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		Filters:        filters,
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			{Hierarchy: d.HierarchyByName("airline"), Level: 1},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return NewGenerator(s, DefaultPrefs(), PercentFormat)
}

func TestBaselineCandidates(t *testing.T) {
	g := flightsGenerator(t)
	cands := g.BaselineCandidates(0.018)
	if len(cands) == 0 {
		t.Fatal("no baseline candidates")
	}
	seen := make(map[float64]bool)
	for _, b := range cands {
		if seen[b.Value] {
			t.Errorf("duplicate baseline value %v", b.Value)
		}
		seen[b.Value] = true
		if b.AggName != "average cancellation probability" {
			t.Errorf("agg name = %q", b.AggName)
		}
	}
	// Values should be ascending and bracket the scale.
	for i := 1; i < len(cands); i++ {
		if cands[i].Value <= cands[i-1].Value {
			t.Error("baseline values should be strictly ascending")
		}
	}
	if cands[0].Value >= 0.018 || cands[len(cands)-1].Value <= 0.018 {
		t.Error("ladder should bracket the scale estimate")
	}
}

func TestBaselineCandidatesDegenerateScale(t *testing.T) {
	g := flightsGenerator(t)
	for _, scale := range []float64{0, -1, math.NaN()} {
		cands := g.BaselineCandidates(scale)
		if len(cands) != 1 || cands[0].Value != 0 {
			t.Errorf("scale %v: expected single zero baseline, got %v", scale, cands)
		}
	}
}

func TestBaselineCandidatesDefaultAggName(t *testing.T) {
	g := flightsGenerator(t)
	q := g.Space.Query()
	q.ColDescription = ""
	// Rebuild space with blank description.
	s2, err := olap.NewSpace(g.Space.Dataset(), q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	g2 := NewGenerator(s2, DefaultPrefs(), PercentFormat)
	cands := g2.BaselineCandidates(0.02)
	if !strings.Contains(cands[0].AggName, "average") || !strings.Contains(cands[0].AggName, "cancelled") {
		t.Errorf("default agg name = %q", cands[0].AggName)
	}
}

func TestRefinementCandidates(t *testing.T) {
	g := flightsGenerator(t)
	cands := g.Refinements(nil)
	if len(cands) == 0 {
		t.Fatal("no refinement candidates")
	}
	// 5 regions + 4 seasons = 9 predicates; per predicate 6 increases and
	// 4 decreases (decreases of 100% or more are excluded).
	want := 9 * perScopeCandidates()
	if len(cands) != want {
		t.Errorf("candidates = %d, want %d", len(cands), want)
	}
	for _, r := range cands {
		if r.ScopeSize <= 0 || r.ScopeSize >= g.Space.Size() {
			t.Errorf("refinement %q has scope size %d of %d", r.Text(), r.ScopeSize, g.Space.Size())
		}
		if len(r.Preds) != 1 {
			t.Errorf("default generator should emit single-predicate refinements")
		}
		if r.Preds[0].IsRoot() {
			t.Error("root predicates should be excluded")
		}
	}
}

func TestRefinementCandidatesExcludeUsedScopes(t *testing.T) {
	g := flightsGenerator(t)
	all := g.Refinements(nil)
	first := all[0]
	rest := g.Refinements([]*Refinement{first})
	for _, r := range rest {
		if r.SameScope(first) {
			t.Fatalf("candidate %q repeats a used scope", r.Text())
		}
	}
	// Exactly one predicate's worth of candidates is removed.
	if len(all)-len(rest) != perScopeCandidates() {
		t.Errorf("removed %d candidates, want %d", len(all)-len(rest), perScopeCandidates())
	}
}

func TestRefinementCandidatesMultiLevel(t *testing.T) {
	// Grouping by state (level 2) admits both region and state predicates.
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 3})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport := d.HierarchyByName("start airport")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{{Hierarchy: airport, Level: 2}},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	g := NewGenerator(s, DefaultPrefs(), PercentFormat)
	var sawRegion, sawState bool
	for _, r := range g.Refinements(nil) {
		switch r.Preds[0].Level {
		case 1:
			sawRegion = true
		case 2:
			sawState = true
		}
	}
	if !sawRegion || !sawState {
		t.Error("expected predicates at both region and state level")
	}
}

func TestRefinementCandidatesPairs(t *testing.T) {
	g := flightsGenerator(t)
	g.MaxPredsPerRefinement = 2
	cands := g.Refinements(nil)
	sawPair := false
	for _, r := range cands {
		if len(r.Preds) == 2 {
			sawPair = true
			if r.Preds[0].Hierarchy() == r.Preds[1].Hierarchy() {
				t.Error("pair predicates must be on distinct hierarchies")
			}
		}
	}
	if !sawPair {
		t.Error("pair mode should emit two-predicate refinements")
	}
	// 9 singles + 5*4 pairs = 29 scopes.
	want := (9 + 20) * perScopeCandidates()
	if len(cands) != want {
		t.Errorf("candidates = %d, want %d", len(cands), want)
	}
}

func TestBranchingFactor(t *testing.T) {
	g := flightsGenerator(t)
	if got := g.BranchingFactor(); got != len(g.Refinements(nil)) {
		t.Error("BranchingFactor should match candidate count")
	}
}

func TestRefinementCandidatesWithFilterScope(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport := d.HierarchyByName("start airport")
	ne := airport.FindMember("the North East")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		Filters: []*dimension.Member{ne},
		GroupBy: []olap.GroupBy{
			{Hierarchy: airport, Level: 2},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	g := NewGenerator(s, DefaultPrefs(), PercentFormat)
	for _, r := range g.Refinements(nil) {
		p := r.Preds[0]
		if p.Hierarchy() == airport && !p.IsDescendantOf(ne) {
			t.Errorf("predicate %v outside the filter scope", p)
		}
	}
}

func TestSpeechScale(t *testing.T) {
	if SpeechScale(math.NaN()) != 0 || SpeechScale(-1) != 0 || SpeechScale(0) != 0 {
		t.Error("degenerate scales should be 0")
	}
	if got := SpeechScale(0.0182); got != 0.018 {
		t.Errorf("scale = %v, want 0.018", got)
	}
}
