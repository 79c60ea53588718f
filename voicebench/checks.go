package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// recomputeSample is how many served cold holistic speeches are planned
// again serially and compared byte for byte.
const recomputeSample = 3

// epochData rebuilds the flights dataset as the server held it at each
// data epoch: the base table plus the acknowledged ingest batches, in
// order. Epoch 0 is the base dataset itself.
type epochData struct {
	base    *olap.Dataset
	batches map[int64]*ingestRecord
	live    *table.Table
	applied int64
	byEpoch map[int64]*olap.Dataset
}

func newEpochData(base *olap.Dataset, ingests []*ingestRecord) *epochData {
	e := &epochData{base: base, batches: map[int64]*ingestRecord{}, byEpoch: map[int64]*olap.Dataset{0: base}}
	for _, in := range ingests {
		if in.err == "" {
			e.batches[in.epoch] = in
		}
	}
	return e
}

// at returns the dataset of the given epoch. Epochs must be requested in
// non-decreasing order past the ones already built.
func (e *epochData) at(epoch int64) (*olap.Dataset, error) {
	if d, ok := e.byEpoch[epoch]; ok {
		return d, nil
	}
	if epoch < e.applied {
		return nil, fmt.Errorf("epoch %d requested after %d was built", epoch, e.applied)
	}
	for e.applied < epoch {
		if err := e.appendNext(); err != nil {
			return nil, err
		}
	}
	return e.snapshot()
}

// hasNext reports whether the batch of the epoch after the last applied
// one was acknowledged.
func (e *epochData) hasNext() bool {
	_, ok := e.batches[e.applied+1]
	return ok
}

// appendNext applies the acknowledged batch of the next epoch to the
// appendable copy of the base table, made on the first call.
func (e *epochData) appendNext() error {
	in, ok := e.batches[e.applied+1]
	if !ok {
		return fmt.Errorf("no acknowledged batch for epoch %d", e.applied+1)
	}
	if e.live == nil {
		live, err := e.base.Table().AppendableCopy(time.Now())
		if err != nil {
			return err
		}
		e.live = live
	}
	if _, err := e.live.AppendBatch(rowBatch(in), time.Now()); err != nil {
		return err
	}
	e.applied++
	return nil
}

// snapshot returns the dataset of the last applied epoch.
func (e *epochData) snapshot() (*olap.Dataset, error) {
	if d, ok := e.byEpoch[e.applied]; ok {
		return d, nil
	}
	d, err := olap.NewDataset(e.live.Snapshot(), e.base.Hierarchies()...)
	if err != nil {
		return nil, err
	}
	e.byEpoch[e.applied] = d
	return d, nil
}

// rowBatch converts an ingest batch to the table's columnar form.
func rowBatch(in *ingestRecord) *table.RowBatch {
	n := len(in.rows)
	airport, month, airline := make([]string, n), make([]string, n), make([]string, n)
	cancelled := make([]float64, n)
	for i, r := range in.rows {
		airport[i], month[i], airline[i], cancelled[i] = r.Airport, r.Month, r.Airline, r.Cancelled
	}
	return table.NewRowBatch().Strings("airport", airport...).Strings("month", month...).
		Strings("airline", airline...).Float64s("cancelled", cancelled...)
}

// exact is the exact result and belief model of one (epoch, query).
type exact struct {
	space  *olap.Space
	result *olap.Result
	model  *belief.Model
}

// checker verifies served answers off the clock and scores their
// quality with the paper's Definition 2.2.
type checker struct {
	data    *epochData
	exacts  map[string]*exact
	quality map[string]float64
	grammar map[string]error
	// failures counts failed answers by reason; examples keeps one each.
	failures map[string]int
	examples map[string]string
}

func newChecker(data *epochData) *checker {
	return &checker{
		data: data, exacts: map[string]*exact{}, quality: map[string]float64{},
		grammar: map[string]error{}, failures: map[string]int{}, examples: map[string]string{},
	}
}

func (c *checker) fail(reason, example string) {
	c.failures[reason]++
	if _, ok := c.examples[reason]; !ok {
		c.examples[reason] = example
	}
}

func (c *checker) failed() int {
	n := 0
	for _, v := range c.failures {
		n += v
	}
	return n
}

func (c *checker) exactFor(epoch int64, q olap.Query, key string) (*exact, error) {
	id := fmt.Sprintf("%d\x00%s", epoch, key)
	if ex, ok := c.exacts[id]; ok {
		return ex, nil
	}
	d, err := c.data.at(epoch)
	if err != nil {
		return nil, err
	}
	space, err := olap.NewSpace(d, q)
	if err != nil {
		return nil, err
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return nil, err
	}
	sigma := belief.SigmaFromScale(result.GrandValue())
	if sigma <= 0 {
		sigma = 1
	}
	model, err := belief.NewModel(space, sigma)
	if err != nil {
		return nil, err
	}
	ex := &exact{space: space, result: result, model: model}
	c.exacts[id] = ex
	return ex, nil
}

// qualityOf scores a served holistic speech against the exact result of
// the data epoch it was computed over.
func (c *checker) qualityOf(r *record) (float64, error) {
	id := fmt.Sprintf("%d\x00%s\x00%s", r.dataEpoch, r.turn.key, r.speech.text)
	if q, ok := c.quality[id]; ok {
		return q, nil
	}
	if r.speech.structured == nil {
		return 0, fmt.Errorf("holistic answer without structure")
	}
	ex, err := c.exactFor(r.dataEpoch, r.turn.query, r.turn.key)
	if err != nil {
		return 0, err
	}
	sp, err := encode.DecodeSpeech(ex.space.Dataset(), *r.speech.structured)
	if err != nil {
		return 0, err
	}
	q := ex.model.Quality(sp, ex.result)
	if math.IsNaN(q) {
		return 0, fmt.Errorf("quality is NaN")
	}
	c.quality[id] = q
	return q, nil
}

// conforms checks a speech against its vocalizer's grammar: holistic
// speeches must parse under the speech grammar, prior enumerations must
// be non-empty sentences.
func (c *checker) conforms(r *record) error {
	text := r.speech.text
	if r.vocalizer() == "prior" {
		if t := strings.TrimSpace(text); t == "" || !strings.HasSuffix(t, ".") {
			return fmt.Errorf("prior speech is not a sentence")
		}
		return nil
	}
	err, ok := c.grammar[text]
	if !ok {
		_, err = speech.Parser{}.Parse(text)
		c.grammar[text] = err
	}
	return err
}

// storeKey identifies a tier-A entry: vocalizer, canonical query, epoch.
func storeKey(method, key string, epoch int64) string {
	return fmt.Sprintf("%s\x00%d\x00%s", method, epoch, key)
}

// checkResult summarizes the off-clock checks of one run.
type checkResult struct {
	qualities  []float64
	recomputed int
	// failedAnswers counts measured answers failing any check.
	failedAnswers int
}

// check runs every output check over the run's records (warm-up records
// included, since cache replays may come from answers computed then) and
// scores the measured holistic answers.
func (c *checker) check(all []*record, ingests []*ingestRecord) checkResult {
	var res checkResult
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	epochs := map[int64]bool{}
	for _, r := range all {
		epochs[r.dataEpoch] = true
	}
	for _, e := range sortedEpochs(epochs) {
		if _, err := c.data.at(e); err != nil {
			c.fail("epoch", err.Error())
		}
	}
	cold := map[string]string{}
	for _, r := range all {
		if r.code == 200 && r.speech != nil && r.cache == "" && !r.degraded && r.fallback == "" {
			cold[storeKey(r.servedBy, r.turn.key, r.dataEpoch)] = r.speech.text
		}
	}
	var coldHolistic []*record
	for _, r := range all {
		reason := c.answerFailure(r, cold)
		if reason != "" {
			r.failed = true
			if !r.warmup {
				res.failedAnswers++
			}
			c.fail(reason, fmt.Sprintf("session %s %q -> %d %s", r.session, r.turn.input, r.code, r.err))
			continue
		}
		if r.warmup || r.vocalizer() != "this" {
			continue
		}
		q, err := c.qualityOf(r)
		if err != nil {
			c.fail("quality", err.Error())
			r.failed = true
			res.failedAnswers++
			continue
		}
		res.qualities = append(res.qualities, q)
		if r.cache == "" {
			coldHolistic = append(coldHolistic, r)
		}
	}
	for _, in := range ingests {
		if in.code != 200 || in.err != "" {
			c.fail("ingest", fmt.Sprintf("batch %d -> %d %s", in.k, in.code, in.err))
		}
	}
	res.recomputed = c.recompute(coldHolistic)
	return res
}

func sortedEpochs(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// answerFailure returns why an answer fails its checks, or "".
func (c *checker) answerFailure(r *record, cold map[string]string) string {
	switch {
	case r.code != 200 || r.err != "":
		return "status"
	case r.speech == nil:
		return "no-speech"
	case r.degraded:
		return "degraded"
	case r.dataEpoch < r.ackEpoch:
		return "stale-below-ack"
	}
	if err := c.conforms(r); err != nil {
		return "grammar"
	}
	if r.cache == "hit" || r.cache == "coalesced" {
		stored, ok := cold[storeKey(r.origin, r.turn.key, r.dataEpoch)]
		if !ok {
			return "replay-unverified"
		}
		if stored != r.speech.text {
			return "replay-mismatch"
		}
	}
	return ""
}

// recompute plans an evenly spaced sample of served cold holistic
// speeches again, serially, with the server's configuration, and
// requires byte-identical text.
func (c *checker) recompute(cold []*record) int {
	if len(cold) == 0 {
		return 0
	}
	n := 0
	for i := 0; i < recomputeSample && i < len(cold); i++ {
		r := cold[i*len(cold)/recomputeSample]
		d, err := c.data.at(r.dataEpoch)
		if err != nil {
			c.fail("recompute", err.Error())
			continue
		}
		cfg := recomputeConfig()
		out, err := core.NewHolistic(d, r.turn.query, cfg).VocalizeContext(context.Background())
		if err != nil {
			c.fail("recompute", err.Error())
			continue
		}
		if out.Text() != r.speech.text {
			c.fail("recompute-mismatch", fmt.Sprintf("%q: served %q, serial %q", r.turn.input, r.speech.text, out.Text()))
			continue
		}
		n++
	}
	return n
}

// recomputeConfig is what web.Server.vocalize hands core.NewHolistic for
// a flights request: the planner config, the dataset's value format, and
// a fresh simulated clock.
func recomputeConfig() core.Config {
	cfg := plannerConfig()
	cfg.Format = speech.PercentFormat
	cfg.Clock = voice.NewSimClock()
	return cfg
}
