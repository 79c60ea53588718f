// Package core implements the paper's primary contribution: combined query
// evaluation and result vocalization (Section 4). Three vocalizers share
// one grammar, user model, and sampling substrate:
//
//   - Holistic — Algorithm 1: speaks the preamble immediately, then keeps
//     sampling the database and the UCT speech tree while each sentence
//     plays, committing to the best follow-up sentence when playback ends.
//   - Optimal — evaluates the query exactly and scores every candidate
//     speech with the exact quality metric before speaking; the quality
//     ceiling, at interactive-latency cost.
//   - Unmerged — the ablation without pipelining: it samples and plans
//     under a fixed interactivity budget (500 ms), then speaks the chosen
//     speech in one piece.
package core

import (
	"math/rand"
	"time"

	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// InteractivityThreshold is the latency below which interactive data
// analysis feels immediate; the paper's budget for the unmerged baseline.
const InteractivityThreshold = 500 * time.Millisecond

// Config tunes a vocalizer. The zero value plus Normalize yields the
// paper's configuration.
type Config struct {
	// Prefs constrain speech output (300 chars, 2 refinements by default).
	Prefs speech.Prefs
	// Format renders values (percent for probabilities, thousands for
	// salaries).
	Format speech.ValueFormat
	// Percents overrides the refinement change menu (optional).
	Percents []int
	// BaselineMultipliers overrides the baseline ladder (optional).
	BaselineMultipliers []float64
	// MaxPredsPerRefinement > 1 enables multi-predicate refinements.
	MaxPredsPerRefinement int
	// Sigma fixes the belief-model standard deviation; zero derives it as
	// half the estimated grand average (the paper's choice).
	Sigma float64
	// Seed drives all randomized components.
	Seed int64

	// SpeakingRate is the simulated TTS speed in characters per second.
	SpeakingRate float64
	// Clock drives playback timing; nil means the real clock.
	Clock voice.Clock

	// InitialRows are read before the search tree is built, providing the
	// scale estimate that seeds baseline candidates.
	InitialRows int
	// RowsPerRound are read from the table in each planning round.
	RowsPerRound int
	// SamplesPerRound is the number of tree samples per planning round.
	SamplesPerRound int
	// PlannerWorkers is ignored: every answer plans on one goroutine, and
	// concurrency lives across answers (the server's admission limit).
	//
	// Deprecated: ignored; kept so existing callers still compile.
	PlannerWorkers int
	// MinRounds is the minimum number of planning rounds before a sentence
	// is committed, guarding quality when playback outpaces planning.
	MinRounds int
	// MaxTreeNodes caps eager search-tree expansion; zero keeps the mcts
	// package default. Lower values bound planning memory on fine-grained
	// queries (deeper nodes expand lazily during sampling).
	MaxTreeNodes int
	// MaxRoundsPerSentence caps rounds per sentence so simulated-clock
	// runs terminate even with very slow speech; zero means no cap beyond
	// playback.
	MaxRoundsPerSentence int
	// SimRoundCost advances a simulated clock by this much per planning
	// round; ignored on the real clock.
	SimRoundCost time.Duration
	// SimNodeCost advances a simulated clock by this much per search-tree
	// node built, modeling the O(m^k) pre-processing cost of the paper's
	// substrate. The holistic approach overlaps tree construction with
	// preamble playback; the unmerged baseline pays it out of its fixed
	// budget — which is exactly why its quality collapses in Figure 3.
	SimNodeCost time.Duration
	// Budget is the planning budget of the unmerged baseline.
	Budget time.Duration

	// DisjointScopes forbids overlapping refinement scopes, emulating a
	// grammar of absolute refinements (ablation).
	DisjointScopes bool
	// UniformTreePolicy replaces UCT child selection with uniform random
	// sampling (ablation).
	UniformTreePolicy bool
	// ResampleEstimates derives cache estimates from a fixed-size
	// subsample as in the paper's literal Algorithm 3 instead of the
	// running mean (ablation); ResampleSize sets the subsample size.
	ResampleEstimates bool
	// ResampleSize is the fixed subsample size for ResampleEstimates.
	ResampleSize int

	// BackgroundSampling scans the table from a dedicated goroutine so
	// data access truly overlaps planning and playback on a real clock
	// (simulated clocks keep the deterministic synchronous loop).
	BackgroundSampling bool

	// Scanner overrides how table rows are streamed into the samplers;
	// nil selects the pseudo-random full-table scan. Fault-injection
	// tests wrap the scan with failing, slow, or stalling variants here.
	Scanner func(t *table.Table, rng *rand.Rand) table.Scanner

	// AsyncStopGrace bounds how long a cancelled vocalization waits for
	// the background scan goroutine to exit before abandoning it (a hung
	// scanner must not hang the answer); zero selects one second.
	AsyncStopGrace time.Duration

	// Trace, when non-nil, records the planner's per-sentence decisions
	// for observability.
	Trace *Trace

	// Uncertainty selects the Section 4.4 confidence extension.
	Uncertainty UncertaintyMode
	// Confidence is the level for spoken bounds and warnings.
	Confidence float64
	// WarnRelativeWidth triggers the warning mode when the grand-scope
	// confidence interval's width exceeds this fraction of its center.
	WarnRelativeWidth float64
}

// Normalize fills unset fields with the paper's defaults and returns the
// completed configuration.
func (c Config) Normalize() Config {
	if c.Prefs == (speech.Prefs{}) {
		c.Prefs = speech.DefaultPrefs()
	}
	if c.SpeakingRate <= 0 {
		c.SpeakingRate = voice.DefaultCharsPerSecond
	}
	if c.Clock == nil {
		c.Clock = voice.RealClock{}
	}
	if c.InitialRows <= 0 {
		c.InitialRows = 256
	}
	if c.RowsPerRound <= 0 {
		c.RowsPerRound = 64
	}
	if c.SamplesPerRound <= 0 {
		c.SamplesPerRound = 4
	}
	if c.MinRounds <= 0 {
		c.MinRounds = 64
	}
	if c.MaxRoundsPerSentence < 0 {
		c.MaxRoundsPerSentence = 0
	}
	if c.SimRoundCost <= 0 {
		c.SimRoundCost = time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = InteractivityThreshold
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	if c.WarnRelativeWidth <= 0 {
		c.WarnRelativeWidth = 0.5
	}
	if c.AsyncStopGrace <= 0 {
		c.AsyncStopGrace = time.Second
	}
	return c
}

// Output reports a vocalization run.
type Output struct {
	// Speech is the final spoken speech (including the preamble).
	Speech *speech.Speech
	// Latency is the time from invocation until voice output started.
	Latency time.Duration
	// PlanningTime is the total compute time of the run.
	PlanningTime time.Duration
	// RowsRead counts table rows consumed by sampling (0 for exact scans).
	RowsRead int64
	// ScanTime is the part of PlanningTime spent in the exact full scan,
	// apart from plan search (optimal only).
	ScanTime time.Duration
	// RowsScanned counts the table rows the exact full scan read
	// (optimal only).
	RowsScanned int64
	// TreeSamples counts MCTS rounds performed.
	TreeSamples int64
	// SpeechesScored counts exact quality evaluations (optimal only).
	SpeechesScored int64
	// Transcript lists the utterances with their playback intervals.
	Transcript []voice.Utterance
	// BoundsSpoken lists the confidence-bound sentences emitted in
	// UncertaintyBounds mode, in speaking order.
	BoundsSpoken []string
	// Warning is the low-confidence warning spoken in UncertaintyWarn
	// mode, empty otherwise.
	Warning string
	// TableRows is the committed row count of the data snapshot the
	// answer was computed over. Streaming clients compare it against
	// ingest acknowledgements to audit answer freshness.
	TableRows int64
	// Degraded reports that the run hit its context deadline or was
	// cancelled before planning finished: the speech contains only what
	// was committed in time (at minimum the preamble) and is still
	// grammar-valid.
	Degraded bool
	// DegradeReason explains a degraded run ("context deadline exceeded"
	// or "context canceled"); empty when Degraded is false.
	DegradeReason string
}

// Text returns the full spoken text.
func (o *Output) Text() string { return o.Speech.Text() }
