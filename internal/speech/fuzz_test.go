package speech

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// renderedSpeeches builds n speeches from the generator — the preamble, a
// random baseline candidate and a random chain of legal refinements — the
// same shapes the planner renders.
func renderedSpeeches(g *Generator, rng *rand.Rand, n int) []*Speech {
	pre := g.NewPreamble()
	bases := g.BaselineCandidates(0.02)
	out := make([]*Speech, 0, n)
	for i := 0; i < n; i++ {
		sp := &Speech{Preamble: pre, Baseline: bases[rng.Intn(len(bases))]}
		for depth := rng.Intn(g.Prefs.MaxFragments + 1); depth > 0; depth-- {
			menu := g.Refinements(sp.Refinements)
			if len(menu) == 0 {
				break
			}
			sp = sp.Extend(menu[rng.Intn(len(menu))])
		}
		out = append(out, sp)
	}
	return out
}

// mutate applies one seeded edit of the kinds that break conformance in
// practice: a misspelled keyword, a lost or doubled sentence boundary, a
// non-numeric quantifier, or a stray byte.
func mutate(text string, rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return strings.Replace(text, "increase", "increasse", 1)
	case 1:
		return strings.Replace(text, ". ", " ", 1)
	case 2:
		return strings.Replace(text, ". ", ".. ", 1)
	case 3:
		return strings.Replace(text, "by 1", "by one", 1)
	default:
		i := rng.Intn(len(text) + 1)
		return text[:i] + string(rune(rng.Intn(128))) + text[i:]
	}
}

// FuzzParserParse checks the speech parser against arbitrary text. Seeds
// are generator speeches rendered by Speech.Text, each of which must parse
// strictly with its refinements' count, directions and percents
// preserved, plus truncated and
// mutated variants of them. On every input, strict or relaxed, Parse must
// not panic, and Conforms must agree with Parse's error.
func FuzzParserParse(f *testing.F) {
	g := flightsGenerator(f)
	rng := rand.New(rand.NewSource(17))
	for _, sp := range renderedSpeeches(g, rng, 32) {
		text := sp.Text()
		ps, err := Parser{Strict: true}.Parse(text)
		if err != nil {
			f.Fatalf("rendered speech does not parse: %v\n%s", err, text)
		}
		if len(ps.Refinements) != len(sp.Refinements) {
			f.Fatalf("parsed %d refinements, rendered %d:\n%s", len(ps.Refinements), len(sp.Refinements), text)
		}
		for i, r := range sp.Refinements {
			if got := ps.Refinements[i]; got.Dir != r.Dir || got.Percent != r.Percent {
				f.Fatalf("refinement %d parsed as %v %d%%, rendered %v %d%%:\n%s", i, got.Dir, got.Percent, r.Dir, r.Percent, text)
			}
		}
		f.Add(text)
		f.Add(text[:rng.Intn(len(text))])
		f.Add(mutate(text, rng))
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, p := range []Parser{{Strict: true}, {}} {
			ps, err := p.Parse(text)
			if p.Conforms(text) != (err == nil) {
				t.Fatalf("strict=%v: Conforms disagrees with Parse error %v on %q", p.Strict, err, text)
			}
			if err != nil {
				if !errors.Is(err, ErrNoPreamble) && !errors.Is(err, ErrNoBaseline) && !errors.Is(err, ErrBadRefinement) {
					t.Fatalf("strict=%v: unclassified error %v on %q", p.Strict, err, text)
				}
				continue
			}
			if ps == nil {
				t.Fatalf("strict=%v: nil parse without error on %q", p.Strict, text)
			}
			if p.Strict && (ps.BaselineValue == "" || ps.AggName == "") {
				t.Fatalf("strict parse accepted %q without a baseline", text)
			}
		}
	})
}
