package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a snapshot of the process counters the end-to-end
// memory and GC metrics are computed from.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// heapBytes reads the heap the last garbage collection marked live. Its
// peak over a run tracks the working set without the collector's pacing
// slack, which the instantaneous heap size swings with.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap every few milliseconds until stopped
// and reports its mean and the largest value seen.
type heapWatch struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
	sum   float64
	n     int
}

func startHeapWatch() *heapWatch {
	p := &heapWatch{stopc: make(chan struct{}), done: make(chan struct{}), peak: heapBytes()}
	go func() {
		defer close(p.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
				h := heapBytes()
				p.mu.Lock()
				if h > p.peak {
					p.peak = h
				}
				p.sum += float64(h)
				p.n++
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// stop ends sampling and returns the mean and peak live heap in bytes.
func (p *heapWatch) stop() (mean, peak float64) {
	close(p.stopc)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(p.sum, float64(p.n)), float64(p.peak)
}

// promCounters parses Prometheus text exposition into series -> value.
func promCounters(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sumPrefix adds every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
