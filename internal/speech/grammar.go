package speech

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/stats"
)

// Direction is the sense of a refinement's change descriptor.
type Direction int

// Refinement change directions.
const (
	Increase Direction = iota
	Decrease
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Increase {
		return "increase"
	}
	return "decrease"
}

// Preamble summarizes the input query: the considered scope (one phrase per
// dimension, using the filter member or the dimension root) and the
// breakdown levels.
type Preamble struct {
	// ScopePhrases are the rendered per-dimension scope descriptions,
	// e.g. "flights starting from any airport".
	ScopePhrases []string
	// LevelNames are the group-by level names, e.g. ["region", "season"].
	LevelNames []string
}

// Text renders the preamble sentence(s).
func (p *Preamble) Text() string {
	var b strings.Builder
	b.WriteString("Considering ")
	b.WriteString(joinPhrases(p.ScopePhrases))
	b.WriteString(".")
	if len(p.LevelNames) > 0 {
		b.WriteString(" Results are broken down by ")
		b.WriteString(joinPhrases(p.LevelNames))
		b.WriteString(".")
	}
	return b.String()
}

// Baseline is the single absolute statement of a speech: a typical value
// for the whole query result.
type Baseline struct {
	// Value is the rounded value the sentence commits to.
	Value float64
	// AggName is the spoken aggregate name ("average cancellation
	// probability").
	AggName string
	// Format selects value rendering.
	Format ValueFormat

	text string // memoized rendering
}

// Text renders the baseline sentence, e.g.
// "Around two percent is the average cancellation probability.".
// The rendering is memoized: fragments are shared across many candidate
// speeches during tree search, and length checks are on the hot path.
func (b *Baseline) Text() string {
	if b.text == "" {
		b.text = fmt.Sprintf("Around %s is the %s.", FormatValue(b.Value, b.Format), b.AggName)
	}
	return b.text
}

// Refinement is a relative statement about a subset of aggregates.
type Refinement struct {
	// Preds scope the refinement; each is a member of a distinct
	// dimension hierarchy.
	Preds []*dimension.Member
	// Dir is the change direction.
	Dir Direction
	// Percent is the change quantifier ("by 50 percent").
	Percent int
	// ScopeSize is the number of result aggregates within scope (m in the
	// paper's semantics), precomputed at candidate generation time.
	ScopeSize int
	// Scope is the precomputed membership bitset of Preds over the query's
	// aggregate space, set at candidate generation time. Scorers use it to
	// sweep a refinement's scope in one bitset pass; nil (hand-built
	// refinements) falls back to Space.InScope.
	Scope *olap.ScopeSet

	text string // memoized rendering
}

// Text renders the refinement sentence, e.g.
// "Values increase by 50 percent for flights starting from the North East.".
// Memoized: candidate refinements are shared by many speeches.
func (r *Refinement) Text() string {
	if r.text == "" {
		phrases := make([]string, len(r.Preds))
		for i, p := range r.Preds {
			phrases[i] = p.Hierarchy().Phrase(p)
		}
		r.text = fmt.Sprintf("Values %s by %d percent for %s.", r.Dir, r.Percent, joinPhrases(phrases))
	}
	return r.text
}

// SameScope reports whether two refinements address the identical predicate
// set (same members, order-insensitive).
func (r *Refinement) SameScope(o *Refinement) bool {
	if len(r.Preds) != len(o.Preds) {
		return false
	}
	for _, p := range r.Preds {
		found := false
		for _, q := range o.Preds {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Subsumes reports whether r's scope is a superset of o's scope: every
// predicate of r must be matched by a predicate of o on the same hierarchy
// that is a descendant (or equal). Refinements on disjoint hierarchies do
// not subsume one another.
func (r *Refinement) Subsumes(o *Refinement) bool {
	for _, p := range r.Preds {
		matched := false
		for _, q := range o.Preds {
			if q.Hierarchy() == p.Hierarchy() && q.IsDescendantOf(p) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// Speech is a full vocalization: preamble, baseline, refinements.
type Speech struct {
	Preamble    *Preamble
	Baseline    *Baseline
	Refinements []*Refinement

	// deltas memoizes Deltas(). Clone and Extend return fresh structs, so a
	// memo can never describe a stale refinement list; the atomic pointer
	// makes the lazy fill safe when concurrent requests share a cached
	// speech. Duplicate computation under contention is benign — the value
	// is deterministic.
	deltas atomic.Pointer[[]float64]
}

// Clone returns a copy sharing the immutable fragments but with an
// independent refinement slice, so appending to the copy never mutates the
// original. Tree search extends speeches one fragment at a time.
func (s *Speech) Clone() *Speech {
	cp := &Speech{Preamble: s.Preamble, Baseline: s.Baseline}
	cp.Refinements = make([]*Refinement, len(s.Refinements), len(s.Refinements)+1)
	copy(cp.Refinements, s.Refinements)
	return cp
}

// Extend returns a copy of s with r appended.
func (s *Speech) Extend(r *Refinement) *Speech {
	cp := s.Clone()
	cp.Refinements = append(cp.Refinements, r)
	return cp
}

// MainText renders the baseline and refinements (the part subject to the
// character limit; the paper excludes the preamble from it).
func (s *Speech) MainText() string {
	var parts []string
	if s.Baseline != nil {
		parts = append(parts, s.Baseline.Text())
	}
	for _, r := range s.Refinements {
		parts = append(parts, r.Text())
	}
	return strings.Join(parts, " ")
}

// Text renders the complete speech including the preamble.
func (s *Speech) Text() string {
	if s.Preamble == nil {
		return s.MainText()
	}
	main := s.MainText()
	if main == "" {
		return s.Preamble.Text()
	}
	return s.Preamble.Text() + " " + main
}

// LastSentence returns the most recently added fragment's text: the latest
// refinement, else the baseline, else the preamble. It is what the
// pipelined reader speaks after each planning round.
func (s *Speech) LastSentence() string {
	if n := len(s.Refinements); n > 0 {
		return s.Refinements[n-1].Text()
	}
	if s.Baseline != nil {
		return s.Baseline.Text()
	}
	if s.Preamble != nil {
		return s.Preamble.Text()
	}
	return ""
}

// NumFragments counts the sentences subject to the fragment limit
// (baseline plus refinements).
func (s *Speech) NumFragments() int {
	n := len(s.Refinements)
	if s.Baseline != nil {
		n++
	}
	return n
}

// Deltas returns the additive change of each refinement under the paper's
// semantics: refinement percentages are relative to the baseline value
// adjusted by every preceding refinement whose scope subsumes this one.
// The result is independent of any particular aggregate. It is memoized —
// scoring walks every aggregate of every sampled estimate through the same
// deltas — so callers must not mutate the returned slice.
func (s *Speech) Deltas() []float64 {
	if p := s.deltas.Load(); p != nil {
		return *p
	}
	deltas := s.computeDeltas()
	s.deltas.Store(&deltas)
	return deltas
}

func (s *Speech) computeDeltas() []float64 {
	deltas := make([]float64, len(s.Refinements))
	if s.Baseline == nil {
		return deltas
	}
	for i, r := range s.Refinements {
		ref := s.Baseline.Value
		for j := 0; j < i; j++ {
			if s.Refinements[j].Subsumes(r) {
				ref += deltas[j]
			}
		}
		d := ref * float64(r.Percent) / 100
		if r.Dir == Decrease {
			d = -d
		}
		deltas[i] = d
	}
	return deltas
}

// Prefs are the user preference constraints on speech output.
type Prefs struct {
	// MaxChars bounds the length of the main speech (without preamble);
	// the paper follows voice-interface guidance of 300 characters.
	MaxChars int
	// MaxFragments bounds the number of refinements.
	MaxFragments int
	// SigDigits is the precision of spoken values (paper: 1).
	SigDigits int
	// MaxSeconds bounds the main speech's playback time at CharsPerSecond
	// — the paper's alternative formulation of the length constraint.
	// Zero disables the time bound.
	MaxSeconds float64
	// CharsPerSecond converts text length to speaking time for
	// MaxSeconds; zero selects 15 (conversational TTS speed).
	CharsPerSecond float64
}

// SpeakingSeconds returns the playback time of n characters under p.
func (p Prefs) SpeakingSeconds(n int) float64 {
	rate := p.CharsPerSecond
	if rate <= 0 {
		rate = 15
	}
	return float64(n) / rate
}

// MaxCharsEffective folds the time bound into a character bound: the
// tighter of MaxChars and MaxSeconds·CharsPerSecond (either may be
// disabled by zero).
func (p Prefs) MaxCharsEffective() int {
	chars := p.MaxChars
	if p.MaxSeconds > 0 {
		rate := p.CharsPerSecond
		if rate <= 0 {
			rate = 15
		}
		timeChars := int(p.MaxSeconds * rate)
		if chars == 0 || timeChars < chars {
			chars = timeChars
		}
	}
	return chars
}

// DefaultPrefs mirrors the paper's experimental configuration.
func DefaultPrefs() Prefs {
	return Prefs{MaxChars: 300, MaxFragments: 2, SigDigits: 1}
}

// MainLen returns the character length of MainText without building the
// string; validity checks run once per candidate node during expansion.
func (s *Speech) MainLen() int {
	n := 0
	if s.Baseline != nil {
		n = len(s.Baseline.Text())
	}
	for _, r := range s.Refinements {
		if n > 0 {
			n++ // joining space
		}
		n += len(r.Text())
	}
	return n
}

// Valid reports whether the speech respects the preference constraints and
// contains no duplicate refinement scopes (a repeated scope would either
// contradict or restate an earlier sentence).
func (s *Speech) Valid(p Prefs) bool {
	if max := p.MaxCharsEffective(); max > 0 && s.MainLen() > max {
		return false
	}
	if p.MaxFragments > 0 && len(s.Refinements) > p.MaxFragments {
		return false
	}
	for i, r := range s.Refinements {
		for j := i + 1; j < len(s.Refinements); j++ {
			if r.SameScope(s.Refinements[j]) {
				return false
			}
		}
	}
	return true
}

// RoundForSpeech rounds v to the spoken precision of p.
func (p Prefs) RoundForSpeech(v float64) float64 {
	d := p.SigDigits
	if d < 1 {
		d = 1
	}
	return stats.RoundSig(v, d)
}
