// Package sampling implements the database-sampling side of the holistic
// algorithm: a cache of sampled rows indexed by query aggregate (Algorithm 3
// of the paper), unbiased count/sum/average estimators derived from the
// cache, the PickAggregate selection rule, and confidence bounds for the
// uncertainty extensions. The cache is filled from a pseudo-random row
// stream and is deliberately single-goroutine: the holistic planner
// interleaves cache fills, tree sampling, and voice output in one loop.
package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/olap"
	"repro/internal/stats"
	"repro/internal/table"
)

// DefaultResampleSize is the fixed subsample size used to derive estimates
// from the cache. The paper uses 10: estimates stay cheap no matter how
// full the cache becomes.
const DefaultResampleSize = 10

// Cache stores sampled rows classified by aggregate for one query.
type Cache struct {
	space   *olap.Space
	measure *table.Float64Column // nil for count queries
	// measureVals is the measure's backing slice, letting batch inserts
	// gather values with direct array loads.
	measureVals []float64
	// values[a] holds the measure values of cached rows for aggregate a
	// (for count queries a placeholder 1 per row, kept for uniformity).
	values [][]float64
	// accs[a] maintains running moments of values[a], giving O(1)
	// full-cache estimates.
	accs []stats.Accumulator
	// grand maintains running moments over all in-scope rows, giving O(1)
	// grand estimates regardless of cache size.
	grand stats.Accumulator
	// scratch is the classification buffer reused across InsertBatch calls.
	scratch []int32
	// totalRows is the table row count the cache's estimates scale
	// against, captured when the cache is created (and advanced by
	// AbsorbAppend). Reading it live from the dataset would silently
	// rescale every estimate when the underlying table grows mid-plan —
	// the stale-scale bug the streaming path flushed out.
	totalRows int64
	// nonEmpty lists aggregates with at least one cached row, supporting
	// O(1) uniform random picks.
	nonEmpty []int
	nrRead   int64
	inScope  int64
	// ResampleSize is the fixed subsample size used when UseResample is
	// set.
	ResampleSize int
	// UseResample derives estimates from a fixed-size cache subsample as
	// in the paper's Algorithm 3. The default (false) uses the running
	// full-cache mean instead: it has the same O(1) per-estimate cost
	// (via the accumulators) but far lower variance, which matters for
	// 0/1 measures like cancellation flags where a 10-value subsample
	// quantizes estimates to multiples of 0.1. The resample mode remains
	// available for the ablation benchmarks.
	UseResample bool
}

// NewCache creates an empty cache for the query of space.
func NewCache(space *olap.Space) (*Cache, error) {
	c := &Cache{
		space:        space,
		values:       make([][]float64, space.Size()),
		accs:         make([]stats.Accumulator, space.Size()),
		totalRows:    int64(space.Dataset().Table().NumRows()),
		ResampleSize: DefaultResampleSize,
	}
	q := space.Query()
	if q.Fct != olap.Count {
		m, err := space.Dataset().Measure(q.Col)
		if err != nil {
			return nil, fmt.Errorf("sampling: %w", err)
		}
		c.measure = m
		c.measureVals = m.Values()
	}
	return c, nil
}

// Space returns the aggregate space the cache is classified against.
func (c *Cache) Space() *olap.Space { return c.space }

// TotalRows returns the table row count the cache's estimates scale
// against.
func (c *Cache) TotalRows() int64 { return c.totalRows }

// AbsorbAppend incrementally extends the cache to a newer snapshot of the
// same streaming table: next must be the same query's space over a
// snapshot that appended rows past the cache's current row bound. Only the
// delta rows [TotalRows, next.NumRows) are classified and accumulated —
// a new batch is a delta, not a rebuild — and they are read exhaustively,
// so when the base cache also read every row (background sample views,
// sequential full scans) the absorbed cache is bit-identical to one
// rebuilt from scratch over the new snapshot. When the base cache only
// sampled, absorbing introduces a disclosed bias toward the delta (every
// delta row is read, sampled base rows are not re-weighted); callers who
// need unbiased estimates under partial reads should rebuild instead.
func (c *Cache) AbsorbAppend(next *olap.Space) error {
	oldQ, newQ := c.space.Query(), next.Query()
	if oldQ.Fct != newQ.Fct || oldQ.Col != newQ.Col {
		return fmt.Errorf("sampling: absorb of a different query (%v %q vs %v %q)",
			newQ.Fct, newQ.Col, oldQ.Fct, oldQ.Col)
	}
	if next.Size() != c.space.Size() {
		return fmt.Errorf("sampling: absorb space has %d aggregates, cache has %d", next.Size(), c.space.Size())
	}
	if lo, _ := c.space.RowBounds(); lo != 0 {
		return fmt.Errorf("sampling: cannot absorb into a time-windowed cache")
	}
	if lo, _ := next.RowBounds(); lo != 0 {
		return fmt.Errorf("sampling: cannot absorb a time-windowed space")
	}
	newTotal := int64(next.Dataset().Table().NumRows())
	if newTotal < c.totalRows {
		return fmt.Errorf("sampling: absorb target has %d rows, cache was built over %d", newTotal, c.totalRows)
	}
	var measure *table.Float64Column
	var measureVals []float64
	if newQ.Fct != olap.Count {
		m, err := next.Dataset().Measure(newQ.Col)
		if err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		measure, measureVals = m, m.Values()
	}
	lo, hi := int(c.totalRows), int(newTotal)
	if n := hi - lo; n > 0 {
		if cap(c.scratch) < n {
			c.scratch = make([]int32, n)
		}
		idxs := c.scratch[:n]
		next.ClassifyRange(lo, hi, idxs)
		c.nrRead += int64(n)
		for i, idx := range idxs {
			if idx < 0 {
				continue
			}
			c.inScope++
			v := 1.0
			if measureVals != nil {
				v = measureVals[lo+i]
			}
			if len(c.values[idx]) == 0 {
				c.nonEmpty = append(c.nonEmpty, int(idx))
			}
			c.values[idx] = append(c.values[idx], v)
			c.accs[idx].Add(v)
			c.grand.Add(v)
		}
	}
	c.space = next
	c.measure = measure
	c.measureVals = measureVals
	c.totalRows = newTotal
	return nil
}

// Insert considers table row for caching. Rows outside the query scope are
// counted in NrRead but not stored; in-scope rows are appended to their
// aggregate's entry list.
func (c *Cache) Insert(row int) {
	c.nrRead++
	idx, ok := c.space.ClassifyRow(row)
	if !ok {
		return
	}
	c.inScope++
	if len(c.values[idx]) == 0 {
		c.nonEmpty = append(c.nonEmpty, idx)
	}
	v := 1.0
	if c.measure != nil {
		v = c.measure.Float(row)
	}
	c.values[idx] = append(c.values[idx], v)
	c.accs[idx].Add(v)
	c.grand.Add(v)
}

// InsertBatch considers a batch of rows for caching: one dense batch
// classification followed by a tight accumulate loop, amortizing the
// per-row call overhead of Insert. Semantically identical to calling
// Insert for each row in order.
func (c *Cache) InsertBatch(rows []int) {
	if len(rows) == 0 {
		return
	}
	if cap(c.scratch) < len(rows) {
		c.scratch = make([]int32, len(rows))
	}
	idxs := c.scratch[:len(rows)]
	c.space.ClassifyRows(rows, idxs)
	c.nrRead += int64(len(rows))
	for i, idx := range idxs {
		if idx < 0 {
			continue
		}
		c.inScope++
		v := 1.0
		if c.measureVals != nil {
			v = c.measureVals[rows[i]]
		}
		if len(c.values[idx]) == 0 {
			c.nonEmpty = append(c.nonEmpty, int(idx))
		}
		c.values[idx] = append(c.values[idx], v)
		c.accs[idx].Add(v)
		c.grand.Add(v)
	}
}

// Size returns the number of cached rows for aggregate a (CA.SIZE).
func (c *Cache) Size(a int) int { return len(c.values[a]) }

// NrRead returns the total number of rows considered (CA.NRREAD).
func (c *Cache) NrRead() int64 { return c.nrRead }

// NrInScope returns the number of cached (in-scope) rows.
func (c *Cache) NrInScope() int64 { return c.inScope }

// NonEmpty returns the number of aggregates with at least one cached row.
func (c *Cache) NonEmpty() int { return len(c.nonEmpty) }

// Resample returns a fixed-size subsample of the cached values for
// aggregate a (CA.RESAMPLE). If at most ResampleSize values are cached they
// are all returned; otherwise ResampleSize values are drawn uniformly with
// replacement, keeping per-estimate cost constant as the cache grows.
func (c *Cache) Resample(a int, rng *rand.Rand) []float64 {
	vs := c.values[a]
	k := c.ResampleSize
	if k <= 0 {
		k = DefaultResampleSize
	}
	if len(vs) <= k {
		out := make([]float64, len(vs))
		copy(out, vs)
		return out
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = vs[rng.Intn(len(vs))]
	}
	return out
}

// PickAggregate selects a random aggregate for speech evaluation, following
// Algorithm 3: for count and sum queries every aggregate is eligible (an
// empty cache entry is itself information); for averages only aggregates
// with cached rows are eligible. It returns ok=false when no aggregate is
// eligible yet.
func (c *Cache) PickAggregate(rng *rand.Rand) (int, bool) {
	if c.space.Query().Fct == olap.Avg {
		if len(c.nonEmpty) == 0 {
			return 0, false
		}
		return c.nonEmpty[rng.Intn(len(c.nonEmpty))], true
	}
	if c.space.Size() == 0 || c.nrRead == 0 {
		return 0, false
	}
	return rng.Intn(c.space.Size()), true
}

// Estimate derives an unbiased estimate for aggregate a (CACHEESTIMATE):
// count is scaled up from the cache hit rate, sum multiplies the count
// estimate by the mean cached value, and average is the mean cached value.
// The mean comes from the O(1) running accumulator by default, or from a
// fixed-size subsample in UseResample mode (the paper's literal Algorithm
// 3). It returns ok=false when no estimate can be derived (average with an
// empty entry, or nothing read yet).
func (c *Cache) Estimate(a int, rng *rand.Rand) (float64, bool) {
	if c.nrRead == 0 {
		return 0, false
	}
	mean := func() float64 {
		if c.UseResample {
			return stats.Mean(c.Resample(a, rng))
		}
		return c.accs[a].Mean()
	}
	nrRows := float64(c.totalRows)
	countEst := nrRows * float64(len(c.values[a])) / float64(c.nrRead)
	switch c.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum:
		if len(c.values[a]) == 0 {
			return 0, true
		}
		return countEst * mean(), true
	case olap.Avg:
		if len(c.values[a]) == 0 {
			return 0, false
		}
		return mean(), true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}

// GrandEstimate estimates the aggregate value over the whole query scope
// from all cached rows: the baseline statement is derived from it. It
// returns ok=false until at least one in-scope row is cached (for count
// and sum, until at least one row was read). The running grand accumulator
// makes this O(1) per call no matter how full the cache is.
func (c *Cache) GrandEstimate() (float64, bool) {
	if c.nrRead == 0 {
		return 0, false
	}
	nrRows := float64(c.totalRows)
	countEst := nrRows * float64(c.inScope) / float64(c.nrRead)
	switch c.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum, olap.Avg:
		if c.inScope == 0 {
			return 0, false
		}
		if c.space.Query().Fct == olap.Sum {
			return countEst * c.grand.Mean(), true
		}
		return c.grand.Mean(), true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}

// PooledConfidenceInterval returns a CLT confidence interval for the
// aggregate value over the union of the given aggregates, pooling their
// cached rows. It powers the Section 4.4 uncertainty extensions, which
// speak bounds for the scope of a sentence (all aggregates for the
// baseline, the refinement's scope otherwise). ok is false when no
// interval can be derived yet.
func (c *Cache) PooledConfidenceInterval(aggs []int, confidence float64) (stats.Interval, bool) {
	var acc stats.Accumulator
	for _, a := range aggs {
		for _, v := range c.values[a] {
			acc.Add(v)
		}
	}
	switch c.space.Query().Fct {
	case olap.Avg:
		if acc.Count() == 0 {
			return stats.Interval{}, false
		}
		return stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence), true
	case olap.Count:
		if c.nrRead == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		p := stats.ProportionConfidenceInterval(acc.Count(), c.nrRead, confidence)
		return stats.Interval{Lo: p.Lo * nrRows, Hi: p.Hi * nrRows}, true
	case olap.Sum:
		if c.nrRead == 0 || acc.Count() == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		mean := stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence)
		scale := nrRows * float64(acc.Count()) / float64(c.nrRead)
		return stats.Interval{Lo: mean.Lo * scale, Hi: mean.Hi * scale}, true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}

// ConfidenceInterval returns a CLT confidence interval for the value of
// aggregate a using all cached rows (not the fixed-size subsample: bounds
// are reported to users, so precision matters more than constant cost).
// The moments come straight from the per-aggregate running accumulator —
// no pass over the cached values. ok is false when no interval can be
// derived.
func (c *Cache) ConfidenceInterval(a int, confidence float64) (stats.Interval, bool) {
	acc := &c.accs[a]
	switch c.space.Query().Fct {
	case olap.Avg:
		if acc.Count() == 0 {
			return stats.Interval{}, false
		}
		return stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence), true
	case olap.Count:
		if c.nrRead == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		p := stats.ProportionConfidenceInterval(acc.Count(), c.nrRead, confidence)
		return stats.Interval{Lo: p.Lo * nrRows, Hi: p.Hi * nrRows}, true
	case olap.Sum:
		if c.nrRead == 0 || acc.Count() == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		mean := stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence)
		scale := nrRows * float64(acc.Count()) / float64(c.nrRead)
		return stats.Interval{Lo: mean.Lo * scale, Hi: mean.Hi * scale}, true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}
