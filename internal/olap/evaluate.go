package olap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/table"
)

// Result holds the exact evaluation of a query: per-aggregate counts and
// sums from which any of the supported aggregation functions derive.
type Result struct {
	space  *Space
	counts []int64
	sums   []float64
	// rows is the number of table rows the scan read.
	rows int64
}

// Evaluate computes the exact query result with a full scan of the base
// table. It is the ground truth used to score speech quality and the data
// source of the "Optimal" baseline.
func Evaluate(d *Dataset, q Query) (*Result, error) {
	space, err := NewSpace(d, q)
	if err != nil {
		return nil, err
	}
	return EvaluateSpace(space)
}

// EvaluateSpace evaluates the query of an already constructed space,
// sharding the scan across runtime.GOMAXPROCS(0) workers.
func EvaluateSpace(space *Space) (*Result, error) {
	return EvaluateSpaceWorkers(space, runtime.GOMAXPROCS(0))
}

// EvaluateSpaceSequential evaluates the query with a single-threaded
// row-at-a-time scan: the reference the parallel path is checked (and
// benchmarked) against.
func EvaluateSpaceSequential(space *Space) (*Result, error) {
	measure, err := evalMeasure(space)
	if err != nil {
		return nil, err
	}
	n := space.Dataset().Table().NumRows()
	r := &Result{
		space:  space,
		counts: make([]int64, space.Size()),
		sums:   make([]float64, space.Size()),
		rows:   int64(n),
	}
	for row := 0; row < n; row++ {
		idx, ok := space.ClassifyRow(row)
		if !ok {
			continue
		}
		r.counts[idx]++
		if measure != nil {
			r.sums[idx] += measure.Float(row)
		}
	}
	return r, nil
}

// evalChunkRows is the fixed work grain of the parallel scan. Chunk
// boundaries depend only on the table size — never on the worker count —
// so per-chunk partial sums always merge in the same order and the result
// is bit-for-bit identical for any number of workers. Counts are integer
// and match the sequential scan exactly; sums are reassociated only at
// chunk boundaries.
const evalChunkRows = 8192

// evalParallelMinRows is the smallest table for which the parallel scan
// pays for its goroutine fan-out and grid merge. Below it (or with a
// single usable CPU) the "parallel" path was measurably slower than the
// sequential scan — BENCH_pipeline.json recorded a 0.985x speedup on a
// one-CPU machine — so EvaluateSpaceWorkers falls back to the sequential
// scan instead.
const evalParallelMinRows = 4 * evalChunkRows

// evalWorkers returns the effective worker count for an n-row scan: 1
// (the sequential path) when the caller asked for one worker, when the
// table is below evalParallelMinRows, or when only one CPU can run; the
// requested count capped by GOMAXPROCS and the chunk count otherwise.
func evalWorkers(n, workers int) int {
	if workers <= 1 || n < evalParallelMinRows {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if chunks := (n + evalChunkRows - 1) / evalChunkRows; workers > chunks {
		workers = chunks
	}
	return workers
}

// EvaluateSpaceWorkers evaluates the query with the given number of scan
// workers. Workers classify fixed-size row chunks into private
// accumulator grids through the dense batch classifier; the grids merge
// in chunk order at the end. Requests that cannot win from parallelism
// (one worker, one CPU, or a small table — see evalWorkers) take the
// sequential path; the result is bit-for-bit identical either way.
func EvaluateSpaceWorkers(space *Space, workers int) (*Result, error) {
	n := space.Dataset().Table().NumRows()
	workers = evalWorkers(n, workers)
	if workers <= 1 {
		return EvaluateSpaceSequential(space)
	}
	measure, err := evalMeasure(space)
	if err != nil {
		return nil, err
	}
	var vals []float64
	if measure != nil {
		vals = measure.Values()
	}
	chunks := (n + evalChunkRows - 1) / evalChunkRows
	if workers > chunks {
		workers = chunks
	}
	size := space.Size()
	// Per-chunk grids live in two shared slabs (one allocation each instead
	// of two per chunk), with the per-chunk stride rounded up to a whole
	// number of 64-byte cache lines: adjacent chunks are usually processed
	// by different workers, and an unpadded boundary would false-share the
	// last aggregates of chunk c with the first aggregates of chunk c+1.
	// Merge order stays chunk order, so the result remains bit-identical to
	// the sequential scan for any worker count.
	stride := (size + 7) &^ 7
	countSlab := make([]int64, chunks*stride)
	var sumSlab []float64
	if vals != nil {
		sumSlab = make([]float64, chunks*stride)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idxs := make([]int32, evalChunkRows)
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * evalChunkRows
				hi := lo + evalChunkRows
				if hi > n {
					hi = n
				}
				counts := countSlab[c*stride : c*stride+size]
				space.ClassifyRange(lo, hi, idxs)
				if vals != nil {
					sums := sumSlab[c*stride : c*stride+size]
					chunkVals := vals[lo:hi]
					for i, idx := range idxs[:hi-lo] {
						if idx >= 0 {
							counts[idx]++
							sums[idx] += chunkVals[i]
						}
					}
				} else {
					for _, idx := range idxs[:hi-lo] {
						if idx >= 0 {
							counts[idx]++
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	r := &Result{
		space:  space,
		counts: make([]int64, size),
		sums:   make([]float64, size),
		rows:   int64(n),
	}
	for c := 0; c < chunks; c++ {
		counts := countSlab[c*stride : c*stride+size]
		for a := 0; a < size; a++ {
			r.counts[a] += counts[a]
		}
		if sumSlab != nil {
			sums := sumSlab[c*stride : c*stride+size]
			for a := 0; a < size; a++ {
				r.sums[a] += sums[a]
			}
		}
	}
	return r, nil
}

// evalMeasure resolves the measure column of a space's query (nil for
// count queries).
func evalMeasure(space *Space) (*table.Float64Column, error) {
	q := space.Query()
	if q.Fct == Count {
		return nil, nil
	}
	return space.Dataset().Measure(q.Col)
}

// RowsScanned returns the number of table rows the evaluation read.
func (r *Result) RowsScanned() int64 { return r.rows }

// Space returns the aggregate space of the result.
func (r *Result) Space() *Space { return r.space }

// Count returns the row count of aggregate idx.
func (r *Result) Count(idx int) int64 { return r.counts[idx] }

// Sum returns the measure sum of aggregate idx.
func (r *Result) Sum(idx int) float64 { return r.sums[idx] }

// Value returns the aggregate value of idx under the query's aggregation
// function. Average over an empty aggregate returns NaN.
func (r *Result) Value(idx int) float64 {
	switch r.space.Query().Fct {
	case Count:
		return float64(r.counts[idx])
	case Sum:
		return r.sums[idx]
	case Avg:
		if r.counts[idx] == 0 {
			return math.NaN()
		}
		return r.sums[idx] / float64(r.counts[idx])
	default:
		panic(fmt.Sprintf("olap: unknown aggregation function %v", r.space.Query().Fct))
	}
}

// Values returns all aggregate values in index order.
func (r *Result) Values() []float64 {
	out := make([]float64, r.space.Size())
	for i := range out {
		out[i] = r.Value(i)
	}
	return out
}

// GrandValue returns the aggregate value over the entire query scope
// (all aggregates combined): total count, total sum, or overall average.
func (r *Result) GrandValue() float64 {
	var count int64
	var sum float64
	for i := range r.counts {
		count += r.counts[i]
		sum += r.sums[i]
	}
	switch r.space.Query().Fct {
	case Count:
		return float64(count)
	case Sum:
		return sum
	case Avg:
		if count == 0 {
			return math.NaN()
		}
		return sum / float64(count)
	default:
		panic(fmt.Sprintf("olap: unknown aggregation function %v", r.space.Query().Fct))
	}
}

// DefinedMean returns the mean over aggregates with at least one row,
// which for sparse averages is the natural "typical value" baseline.
func (r *Result) DefinedMean() float64 {
	var sum float64
	var n int
	for i := range r.counts {
		v := r.Value(i)
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
