package table

import (
	"math/rand"
)

// Scanner produces a stream of row indices from a table. Next returns the
// next row index and true, or 0 and false when the stream is exhausted.
type Scanner interface {
	Next() (row int, ok bool)
	// Reset restarts the stream from the beginning.
	Reset()
}

// BatchScanner is an optional Scanner extension: NextBatch fills buf with
// the next row indices and returns how many were written (0 when the
// stream is exhausted). Native implementations amortize the per-row
// interface dispatch of Next into one call per batch.
type BatchScanner interface {
	NextBatch(buf []int) int
}

// FillBatch pulls up to len(buf) rows from s into buf, using the native
// batch implementation when the scanner provides one and falling back to
// repeated Next calls otherwise. It returns the number of rows written.
func FillBatch(s Scanner, buf []int) int {
	if bs, ok := s.(BatchScanner); ok {
		return bs.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		r, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

// SequentialScanner yields rows 0..n-1 in order.
type SequentialScanner struct {
	n, pos int
	epoch  int64
}

// NewSequentialScanner scans the table front to back. The scanner is
// pinned at construction to the table's committed watermark and epoch:
// rows appended after construction are never emitted, so an in-flight
// scan over a growing table cannot mix an old row bound with new data.
func NewSequentialScanner(t *Table) *SequentialScanner {
	return &SequentialScanner{n: t.CommittedRows(), epoch: t.Epoch()}
}

// Epoch returns the table epoch the scanner was pinned to at construction.
func (s *SequentialScanner) Epoch() int64 { return s.epoch }

// Next implements Scanner.
func (s *SequentialScanner) Next() (int, bool) {
	if s.pos >= s.n {
		return 0, false
	}
	r := s.pos
	s.pos++
	return r, true
}

// Reset implements Scanner.
func (s *SequentialScanner) Reset() { s.pos = 0 }

// NextBatch implements BatchScanner.
func (s *SequentialScanner) NextBatch(buf []int) int {
	n := 0
	for n < len(buf) && s.pos < s.n {
		buf[n] = s.pos
		s.pos++
		n++
	}
	return n
}

// RandomScanner yields every row exactly once in a pseudo-random order using
// O(1) memory: it walks a full-cycle affine sequence i -> (i*stride + offset)
// mod n where gcd(stride, n) == 1. That gives the sample cache an unbiased
// row stream over arbitrarily large tables without materializing a
// permutation.
type RandomScanner struct {
	n       int
	base    int
	stride  int
	offset  int
	emitted int
	cur     int
	epoch   int64
}

// NewRandomScanner returns a scanner over all rows of t in pseudo-random
// order derived from rng. An empty table yields an exhausted scanner. Like
// NewSequentialScanner, the scanner is pinned to the table's committed
// watermark and epoch at construction: rows appended later are never
// emitted.
func NewRandomScanner(t *Table, rng *rand.Rand) *RandomScanner {
	s := NewRandomRangeScanner(0, t.CommittedRows(), rng)
	s.epoch = t.Epoch()
	return s
}

// Epoch returns the table epoch the scanner was pinned to at construction
// (0 for range scanners built without a table).
func (s *RandomScanner) Epoch() int64 { return s.epoch }

// NewRandomRangeScanner returns a scanner over rows [lo, hi) in
// pseudo-random order derived from rng: the same full-cycle affine walk as
// NewRandomScanner restricted to a contiguous partition. An empty range
// yields an exhausted scanner.
func NewRandomRangeScanner(lo, hi int, rng *rand.Rand) *RandomScanner {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	s := &RandomScanner{n: n, base: lo}
	if n == 0 {
		return s
	}
	s.offset = rng.Intn(n)
	s.stride = coprimeStride(n, rng)
	s.cur = s.offset
	return s
}

// coprimeStride picks a stride in [1, n) coprime with n so the affine walk
// visits every row exactly once.
func coprimeStride(n int, rng *rand.Rand) int {
	if n == 1 {
		return 1
	}
	for {
		c := 1 + rng.Intn(n-1)
		if gcd(c, n) == 1 {
			return c
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next implements Scanner.
func (s *RandomScanner) Next() (int, bool) {
	if s.emitted >= s.n {
		return 0, false
	}
	r := s.base + s.cur
	s.cur = (s.cur + s.stride) % s.n
	s.emitted++
	return r, true
}

// NextBatch implements BatchScanner with one bounds check per row and no
// interface dispatch: the affine walk runs in a tight local-variable loop.
func (s *RandomScanner) NextBatch(buf []int) int {
	want := s.n - s.emitted
	if want > len(buf) {
		want = len(buf)
	}
	if want <= 0 {
		return 0
	}
	cur, stride, n, base := s.cur, s.stride, s.n, s.base
	for i := 0; i < want; i++ {
		buf[i] = base + cur
		cur += stride
		if cur >= n {
			cur -= n
		}
	}
	s.cur = cur
	s.emitted += want
	return want
}

// Reset implements Scanner. The same pseudo-random order is replayed.
func (s *RandomScanner) Reset() {
	s.emitted = 0
	s.cur = s.offset
}

// Remaining returns how many rows are left in the stream.
func (s *RandomScanner) Remaining() int { return s.n - s.emitted }
