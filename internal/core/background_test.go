package core

import (
	"strings"
	"testing"
	"time"
)

// backgroundConfig runs on the real clock with a fast speaking rate so
// playback windows are short but real.
func backgroundConfig(seed int64) Config {
	return Config{
		Percents:             []int{50, 100},
		Seed:                 seed,
		SpeakingRate:         4000, // ~50 ms per sentence
		MaxRoundsPerSentence: 3000,
		MinRounds:            64,
		BackgroundSampling:   true,
	}
}

func TestBackgroundSamplingProducesSpeech(t *testing.T) {
	d, q := flightsQuery(t, 50000, 101)
	out, err := NewHolistic(d, q, backgroundConfig(1)).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Fatal("no baseline")
	}
	if out.RowsRead == 0 {
		t.Error("background scan should have read rows")
	}
	if out.TreeSamples == 0 {
		t.Error("planner should have sampled the tree")
	}
	quality, err := ExactQuality(d, q, out, backgroundConfig(1))
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	if quality <= 0 {
		t.Errorf("quality = %v", quality)
	}
}

func TestBackgroundSamplingLatencyIsImmediate(t *testing.T) {
	d, q := flightsQuery(t, 100000, 102)
	out, err := NewHolistic(d, q, backgroundConfig(2)).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if out.Latency > 100*time.Millisecond {
		t.Errorf("latency %v should be immediate", out.Latency)
	}
	if !strings.HasPrefix(out.Transcript[0].Text, "Considering") {
		t.Error("preamble should speak first")
	}
}

func TestBackgroundSamplingWithUncertaintyWarn(t *testing.T) {
	d, q := flightsQuery(t, 50000, 103)
	cfg := backgroundConfig(3)
	cfg.Uncertainty = UncertaintyWarn
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	// With 50k rows scanned in the background, confidence is high.
	if out.Warning != "" {
		t.Errorf("unexpected warning %q", out.Warning)
	}
}

func TestBackgroundSamplingWithBounds(t *testing.T) {
	d, q := flightsQuery(t, 50000, 104)
	cfg := backgroundConfig(4)
	cfg.Uncertainty = UncertaintyBounds
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if len(out.BoundsSpoken) == 0 {
		t.Error("bounds mode should speak intervals from the async cache")
	}
}
