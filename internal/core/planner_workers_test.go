package core

import (
	"context"
	"testing"

	"repro/internal/olap"
	"repro/internal/speech"
)

// TestPlannerWorkersOneIsSequential pins the deprecated knob as ignored:
// every answer plans on one goroutine, so leaving PlannerWorkers unset,
// setting it to 1 and setting it to 4 must produce identical runs (same
// speech, same rows read, same tree samples) for both tree planners.
func TestPlannerWorkersOneIsSequential(t *testing.T) {
	d, q := flightsQuery(t, 20000, 98)
	run := func(workers int, unmerged bool) *Output {
		cfg := testConfig(7)
		cfg.PlannerWorkers = workers
		var v Vocalizer = NewHolistic(d, q, cfg)
		if unmerged {
			v = NewUnmerged(d, q, cfg)
		}
		out, err := v.Vocalize()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return out
	}
	for _, unmerged := range []bool{false, true} {
		def := run(0, unmerged)
		for _, workers := range []int{1, 4} {
			got := run(workers, unmerged)
			if def.Text() != got.Text() {
				t.Errorf("unmerged=%v: speech differs:\n  default: %q\n  workers=%d: %q", unmerged, def.Text(), workers, got.Text())
			}
			if def.RowsRead != got.RowsRead || def.TreeSamples != got.TreeSamples {
				t.Errorf("unmerged=%v workers=%d: run statistics differ: rows %d/%d samples %d/%d",
					unmerged, workers, def.RowsRead, got.RowsRead, def.TreeSamples, got.TreeSamples)
			}
		}
	}
}

// TestPlannerWorkersParallelProducesValidSpeech runs holistic and
// unmerged end to end with PlannerWorkers set to 4: the ignored knob
// must still yield a valid, tree-sampled speech from both planners.
func TestPlannerWorkersParallelProducesValidSpeech(t *testing.T) {
	d, q := flightsQuery(t, 20000, 99)
	cfg := testConfig(8)
	cfg.PlannerWorkers = 4
	cfg.SamplesPerRound = 16

	hout, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	if hout.Speech.Baseline == nil || !hout.Speech.Valid(speech.DefaultPrefs()) {
		t.Errorf("holistic speech invalid: %q", hout.Speech.MainText())
	}
	if hout.TreeSamples == 0 {
		t.Error("holistic run should sample the tree")
	}

	uout, err := NewUnmerged(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("unmerged: %v", err)
	}
	if uout.Speech.Baseline == nil || !uout.Speech.Valid(speech.DefaultPrefs()) {
		t.Errorf("unmerged speech invalid: %q", uout.Speech.MainText())
	}
}

// TestOptimalMatchesScalarSearch re-runs the optimal plan-space search
// with the pre-scorer scalar implementation (Model.Quality per candidate)
// and requires the incremental-scorer search to choose the identical
// speech with the identical candidate count — the acceptance bar for
// swapping in the kernel ("unchanged math, only evaluation order").
func TestOptimalMatchesScalarSearch(t *testing.T) {
	d, q := flightsQuery(t, 20000, 100)
	cfg := testConfig(9)
	o := NewOptimal(d, q, cfg)
	s, err := newSession(d, q, cfg)
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	result, err := olap.EvaluateSpace(s.space)
	if err != nil {
		t.Fatalf("EvaluateSpace: %v", err)
	}
	scale := result.GrandValue()
	if err := s.buildModel(scale); err != nil {
		t.Fatalf("buildModel: %v", err)
	}
	preamble := s.gen.NewPreamble()

	got, gotScored := o.searchBest(context.Background(), s, result, scale, preamble)

	// Reference: the scalar search exactly as it was before the scorer.
	var want *speech.Speech
	wantQ := -1.0
	var wantScored int64
	var extend func(sp *speech.Speech)
	extend = func(sp *speech.Speech) {
		qual := s.model.Quality(sp, result)
		wantScored++
		if qual > wantQ {
			wantQ = qual
			want = sp
		}
		if len(sp.Refinements) >= s.cfg.Prefs.MaxFragments {
			return
		}
		for _, r := range s.gen.Refinements(sp.Refinements) {
			ext := sp.Extend(r)
			if ext.Valid(s.cfg.Prefs) {
				extend(ext)
			}
		}
	}
	for _, b := range s.gen.BaselineCandidates(speech.SpeechScale(scale)) {
		extend(&speech.Speech{Preamble: preamble, Baseline: b})
	}

	if gotScored != wantScored {
		t.Errorf("scored %d candidates, scalar search scored %d", gotScored, wantScored)
	}
	if want == nil || got == nil {
		t.Fatal("both searches should find a speech")
	}
	if got.Text() != want.Text() {
		t.Errorf("chosen speech differs:\n  scorer: %q\n  scalar: %q", got.Text(), want.Text())
	}
}
