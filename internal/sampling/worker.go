package sampling

import (
	"fmt"

	"repro/internal/olap"
)

// WorkerAccumulator is a scan goroutine's private staging area: it fills
// with zero synchronization — batch classification and the measure gather
// run entirely on private state, which is where the CPU time of an insert
// goes. At the end of each scan batch the accumulator is replayed into a
// shared Cache via Cache.MergeWorker and recycled with Reset
// (AsyncSampler's loop).
//
// The accumulator journals its in-scope (aggregate, value) pairs in row
// order rather than keeping per-aggregate state. Replaying the journal
// performs the identical Cache mutations, in the identical order, that
// Cache.InsertBatch over the same rows would have performed — so the merge
// is bit-identical to the sequential reference, not merely statistically
// equivalent. TestMergeWorkerBitIdentical pins this contract.
type WorkerAccumulator struct {
	space       *olap.Space
	measureVals []float64 // nil for count queries
	// idxs/vals journal the in-scope inserts in row order.
	idxs []int32
	vals []float64
	// nrRead counts every row considered, in or out of scope.
	nrRead int64
	// scratch is the classification buffer reused across InsertBatch calls.
	scratch []int32
}

// NewWorkerAccumulator creates an empty epoch-local accumulator for the
// query of space. It resolves the same measure column a Cache for the same
// space would, so journaled values match Cache.InsertBatch's bit for bit.
func NewWorkerAccumulator(space *olap.Space) (*WorkerAccumulator, error) {
	w := &WorkerAccumulator{space: space}
	q := space.Query()
	if q.Fct != olap.Count {
		m, err := space.Dataset().Measure(q.Col)
		if err != nil {
			return nil, fmt.Errorf("sampling: %w", err)
		}
		w.measureVals = m.Values()
	}
	return w, nil
}

// InsertBatch classifies rows and journals the in-scope ones. No locks, no
// shared state: safe to call from the owning worker only.
func (w *WorkerAccumulator) InsertBatch(rows []int) {
	if len(rows) == 0 {
		return
	}
	if cap(w.scratch) < len(rows) {
		w.scratch = make([]int32, len(rows))
	}
	idxs := w.scratch[:len(rows)]
	w.space.ClassifyRows(rows, idxs)
	w.nrRead += int64(len(rows))
	for i, idx := range idxs {
		if idx < 0 {
			continue
		}
		v := 1.0
		if w.measureVals != nil {
			v = w.measureVals[rows[i]]
		}
		w.idxs = append(w.idxs, idx)
		w.vals = append(w.vals, v)
	}
}

// NrRead returns the rows considered since the last Reset.
func (w *WorkerAccumulator) NrRead() int64 { return w.nrRead }

// NrInScope returns the journaled in-scope rows since the last Reset.
func (w *WorkerAccumulator) NrInScope() int { return len(w.idxs) }

// Reset empties the journal, keeping the backing arrays for reuse so a
// steady-state scan allocates nothing per batch.
func (w *WorkerAccumulator) Reset() {
	w.idxs = w.idxs[:0]
	w.vals = w.vals[:0]
	w.nrRead = 0
}

// Rebind points the accumulator at a newer snapshot of the same streaming
// table (the AbsorbAppend counterpart for epoch-local state). The journal
// must be empty: epochs straddling a snapshot switch would mix row spaces.
func (w *WorkerAccumulator) Rebind(next *olap.Space) error {
	if len(w.idxs) != 0 || w.nrRead != 0 {
		return fmt.Errorf("sampling: rebind of a non-empty worker accumulator")
	}
	q := next.Query()
	w.space = next
	w.measureVals = nil
	if q.Fct != olap.Count {
		m, err := next.Dataset().Measure(q.Col)
		if err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		w.measureVals = m.Values()
	}
	return nil
}

// MergeWorker replays a worker accumulator's journal into the cache. The
// replay performs the same per-row mutations as InsertBatch over the same
// rows in the same order, so a cache assembled from worker epochs is
// bit-identical to one that ran the sequential insert path on the epochs'
// rows in merge order — for any worker count and any merge order. The
// worker's journal is not consumed; callers Reset it for reuse.
//
// The accumulator must be classified against a space of the same size as
// the cache's (in the streaming case: any snapshot of the same table, since
// appends never re-classify existing rows).
func (c *Cache) MergeWorker(w *WorkerAccumulator) {
	if len(c.values) != w.space.Size() {
		panic(fmt.Sprintf("sampling: merge of a worker over %d aggregates into a cache over %d",
			w.space.Size(), len(c.values)))
	}
	c.nrRead += w.nrRead
	for i, idx := range w.idxs {
		v := w.vals[i]
		c.inScope++
		if len(c.values[idx]) == 0 {
			c.nonEmpty = append(c.nonEmpty, int(idx))
		}
		c.values[idx] = append(c.values[idx], v)
		c.accs[idx].Add(v)
		c.grand.Add(v)
	}
}
