package nlq_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/scenario"
)

// describe renders a query by names, so equal states compare equal.
func describe(q olap.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %s window=%v by", q.Fct, q.Col, q.Window.Last)
	for _, g := range q.GroupBy {
		fmt.Fprintf(&b, " %s@%d", g.Hierarchy.Name, g.Level)
	}
	b.WriteString(" where")
	for _, m := range q.Filters {
		fmt.Fprintf(&b, " %s/%s", m.Hierarchy().Name, m.Name)
	}
	return b.String()
}

// fingerprint captures a session's observable state: its query, its
// summary, and the whole undo history, walked back on a clone.
func fingerprint(s *nlq.Session) string {
	var b strings.Builder
	b.WriteString(describe(s.Query()))
	b.WriteString(" | ")
	b.WriteString(s.Summary())
	walk := s.Clone()
	for i := 0; i < 256; i++ {
		if _, err := walk.Parse("undo"); err != nil {
			break
		}
		b.WriteString(" <- ")
		b.WriteString(describe(walk.Query()))
	}
	return b.String()
}

// FuzzSessionParse checks the keyword interpreter against arbitrary
// utterances. An input is a script, one utterance per line, so undo can
// be followed by further edits. Seeds are the scenario scripts, whole and
// step by step, and their seeded ASR-noise corruptions. Every input runs
// against sessions over both study datasets, fresh and mid-exploration:
// Parse must not panic, parsing on a Clone must leave the original
// untouched, and two fresh clones given the same utterances must give the
// same responses and end in the same state, or fail with the same errors.
func FuzzSessionParse(f *testing.F) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 1})
	if err != nil {
		f.Fatalf("Flights: %v", err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: 2})
	if err != nil {
		f.Fatalf("Salaries: %v", err)
	}
	newSession := func(d *olap.Dataset, col, desc string, script ...string) *nlq.Session {
		s, err := nlq.NewSession(d, olap.Avg, col, desc)
		if err != nil {
			f.Fatalf("NewSession: %v", err)
		}
		for _, in := range script {
			if _, err := s.Parse(in); err != nil {
				f.Fatalf("Parse(%q): %v", in, err)
			}
		}
		return s
	}
	bases := []*nlq.Session{
		newSession(flights, "cancelled", "average cancellation probability"),
		newSession(flights, "cancelled", "average cancellation probability",
			"break down by region and season", "drill down", "only winter", "how many flights"),
		newSession(salaries, "midCareerSalary", "average mid-career salary"),
		newSession(salaries, "midCareerSalary", "average mid-career salary", "drill down", "roll up the location"),
	}

	for _, spec := range scenario.All() {
		var script []string
		for _, st := range spec.Script {
			if st.Input != "" {
				script = append(script, st.Input)
			}
		}
		if len(script) == 0 {
			continue
		}
		for _, in := range script {
			f.Add(in)
		}
		whole := strings.Join(script, "\n")
		f.Add(whole + "\nundo\ndrill down")
		for seed := int64(1); seed <= 3; seed++ {
			c := nlq.NewCorrupter(nlq.CorruptConfig{Seed: seed, Homophones: seed%2 == 1})
			f.Add(c.Corrupt(script[0]))
			f.Add(strings.Join([]string{c.Corrupt(whole), "back", c.Corrupt(script[len(script)-1])}, "\n"))
		}
	}
	f.Add("undo\nbreak down by region\nonly winter")

	f.Fuzz(func(t *testing.T, input string) {
		utterances := strings.Split(input, "\n")
		for i, base := range bases {
			before := fingerprint(base)
			a, b := base.Clone(), base.Clone()
			for _, in := range utterances {
				ra, errA := a.Parse(in)
				rb, errB := b.Parse(in)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("session %d: %q gave errors %v and %v on two clones", i, in, errA, errB)
				}
				if ra != rb {
					t.Fatalf("session %d: %q gave responses %+v and %+v on two clones", i, in, ra, rb)
				}
			}
			if after := fingerprint(base); after != before {
				t.Fatalf("session %d: parsing %q on a clone changed the original:\n  before %s\n  after  %s", i, input, before, after)
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("session %d: %q left two clones in different states:\n  %s\n  %s", i, input, fa, fb)
			}
		}
	})
}
