package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/belief"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// session bundles the per-query machinery shared by the vocalizers:
// aggregate space, fragment generator, sampler+cache, belief model, and
// speaker. Vocalizers differ only in how they schedule these pieces.
type session struct {
	cfg     Config
	space   *olap.Space
	gen     *speech.Generator
	sampler *sampling.Sampler
	// async replaces the synchronous sampler when background sampling is
	// enabled; confidence queries then go through its lock.
	async   *sampling.AsyncSampler
	model   *belief.Model
	speaker *voice.Speaker
	rng     *rand.Rand
}

// newSession validates the query and assembles the shared machinery.
// The belief model is created lazily (its σ depends on a scale estimate).
func newSession(d *olap.Dataset, q olap.Query, cfg Config) (*session, error) {
	cfg = cfg.Normalize()
	space, err := olap.NewSpace(d, q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	gen := speech.NewGenerator(space, cfg.Prefs, cfg.Format)
	if cfg.Percents != nil {
		gen.Percents = cfg.Percents
	}
	if cfg.BaselineMultipliers != nil {
		gen.BaselineMultipliers = cfg.BaselineMultipliers
	}
	if cfg.MaxPredsPerRefinement > 1 {
		gen.MaxPredsPerRefinement = cfg.MaxPredsPerRefinement
	}
	gen.DisjointScopes = cfg.DisjointScopes
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler, err := sampling.NewSamplerWithScanner(space, newScanner(cfg, space, rng))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ResampleEstimates {
		sampler.Cache().UseResample = true
		if cfg.ResampleSize > 0 {
			sampler.Cache().ResampleSize = cfg.ResampleSize
		}
	}
	return &session{
		cfg:     cfg,
		space:   space,
		gen:     gen,
		sampler: sampler,
		speaker: voice.NewSpeaker(cfg.Clock, cfg.SpeakingRate),
		rng:     rng,
	}, nil
}

// newScanner builds the row stream for a sampler: the configured override
// when set (fault injection, alternative orders), else the pseudo-random
// full-table scan.
func newScanner(cfg Config, space *olap.Space, rng *rand.Rand) table.Scanner {
	if cfg.Scanner != nil {
		return cfg.Scanner(space.Dataset().Table(), rng)
	}
	return table.NewRandomScanner(space.Dataset().Table(), rng)
}

// sigmaFor derives the belief σ from the configured value or a scale
// estimate, guarding against degenerate scales.
func (s *session) sigmaFor(scale float64) float64 {
	if s.cfg.Sigma > 0 {
		return s.cfg.Sigma
	}
	sigma := belief.SigmaFromScale(scale)
	if sigma <= 0 {
		sigma = 1
	}
	return sigma
}

// buildModel instantiates the belief model for the given scale.
func (s *session) buildModel(scale float64) error {
	m, err := belief.NewModel(s.space, s.sigmaFor(scale))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.model = m
	return nil
}

// evalFunc is SpeechDBeval (Algorithm 3): pick a random eligible aggregate,
// estimate its value from the given source, and reward the speech by the
// belief probability of that estimate. The source is the on-line cache for
// normal runs or a materialized sample view for warm starts.
func (s *session) evalFunc(est sampling.Estimator) mcts.EvalFunc {
	return func(sp *speech.Speech) (float64, bool) {
		a, ok := est.PickAggregate(s.rng)
		if !ok {
			return 0, false
		}
		e, ok := est.Estimate(a, s.rng)
		if !ok {
			return 0, false
		}
		return s.model.Reward(sp, a, e), true
	}
}

// simAdvance moves a simulated clock forward by the per-round cost;
// on a real clock time passes by itself.
func (s *session) simAdvance() {
	if sim, ok := s.cfg.Clock.(*voice.SimClock); ok {
		sim.Advance(s.cfg.SimRoundCost)
	}
}

// simCharge advances a simulated clock by the cost of building n tree
// nodes (no-op on the real clock or with SimNodeCost zero).
func (s *session) simCharge(nodes int) {
	if s.cfg.SimNodeCost <= 0 {
		return
	}
	if sim, ok := s.cfg.Clock.(*voice.SimClock); ok {
		sim.Advance(time.Duration(nodes) * s.cfg.SimNodeCost)
	}
}
