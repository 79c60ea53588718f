package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/encode"
)

// ingestBatchRows and ingestPeriod fix the live-ingest schedule: one
// batch of this many rows is due every period. Both are cmd/loadgen's
// stream workload defaults (-batch-rows, -ingest-interval).
const (
	ingestBatchRows = 64
	ingestPeriod    = 25 * time.Millisecond
)

// speechInfo is one distinct spoken answer, interned across replies so a
// hot workload's thousands of replays share one copy.
type speechInfo struct {
	text       string
	structured *encode.Speech
}

// record is one query request as the client saw it.
type record struct {
	id      int64
	session string
	turn    *turn
	// start and end are offsets from the run's time origin.
	start, end time.Duration
	code       int
	speech     *speechInfo
	servedBy   string
	origin     string
	cache      string
	fallback   string
	degraded   bool
	dataEpoch  int64
	// ackEpoch is the newest ingest epoch acknowledged to the benchmark
	// when the request was sent.
	ackEpoch int64
	warmup   bool
	err      string
	// failed is set by the checks.
	failed bool
}

func (r *record) wall() time.Duration { return r.end - r.start }

// vocalizer is the method whose grammar the speech follows.
func (r *record) vocalizer() string {
	if r.servedBy == "cache" {
		return r.origin
	}
	return r.servedBy
}

// ingestRecord is one ingest batch as the client saw it.
type ingestRecord struct {
	id         int64
	k          int
	start, end time.Duration
	// late is how far behind its schedule the batch was sent.
	late  time.Duration
	code  int
	epoch int64
	rows  []datagen.FlightRow
	err   string
}

// reply is the subset of the /api/query response the benchmark reads.
type reply struct {
	Speech     string         `json:"speech"`
	Structured *encode.Speech `json:"structured"`
	ServedBy   string         `json:"servedBy"`
	Origin     string         `json:"origin"`
	Cache      string         `json:"cache"`
	Fallback   string         `json:"fallback"`
	Degraded   bool           `json:"degraded"`
	DataEpoch  int64          `json:"dataEpoch"`
	Error      string         `json:"error"`
}

// runner runs the clients of one run against a bench.
type runner struct {
	b      *bench
	origin time.Time
	ids    atomic.Int64
	// ack is the newest acknowledged ingest epoch.
	ack atomic.Int64
}

// clientState is one client goroutine's identity and private output.
type clientState struct {
	// tenant is sent as X-Tenant. Without it the server takes the session
	// id as the tenant and keeps counters per session forever; see
	// NOTES.md.
	tenant  string
	records []*record
	intern  map[string]*speechInfo
}

func newClientState(i int) *clientState {
	return &clientState{tenant: "client-" + strconv.Itoa(i), intern: make(map[string]*speechInfo)}
}

// replyTags are the labels a reply's servedBy, origin, cache and
// fallback fields take.
var replyTags = []string{"", "this", "prior", "cache", "hit", "coalesced", "warm", "brownout", "breaker"}

// tag returns a reply label as a constant, so records retain no
// per-reply strings for the collector to trace.
func tag(s string) string {
	for _, c := range replyTags {
		if s == c {
			return c
		}
	}
	return s
}

// ask posts one query and records the reply.
func (dr *runner) ask(cs *clientState, session string, t *turn, warmup bool) {
	id := dr.ids.Add(1)
	body, err := json.Marshal(map[string]string{
		"session": session, "dataset": "flights", "input": t.input, "method": t.method,
	})
	if err != nil {
		panic(err)
	}
	rec := &record{id: id, session: session, turn: t, warmup: warmup, ackEpoch: dr.ack.Load()}
	req, err := http.NewRequest(http.MethodPost, dr.b.base+"/api/query", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	req.Header.Set("X-Tenant", cs.tenant)
	rec.start = time.Since(dr.origin)
	resp, err := dr.b.client.Do(req)
	var rep reply
	if err == nil {
		rec.code = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&rep)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.end = time.Since(dr.origin)
	if err != nil {
		rec.err = err.Error()
	} else if rep.Error != "" {
		rec.err = rep.Error
	}
	if rep.Speech != "" {
		si, ok := cs.intern[rep.Speech]
		if !ok {
			si = &speechInfo{text: rep.Speech, structured: rep.Structured}
			cs.intern[rep.Speech] = si
		}
		rec.speech = si
	}
	rec.servedBy, rec.origin, rec.cache, rec.fallback = tag(rep.ServedBy), tag(rep.Origin), tag(rep.Cache), tag(rep.Fallback)
	rec.degraded, rec.dataEpoch = rep.Degraded, rep.DataEpoch
	cs.records = append(cs.records, rec)
}

// ingest ships one batch and, once acknowledged, publishes its epoch.
func (dr *runner) ingest(k int, rows []datagen.FlightRow, late time.Duration) *ingestRecord {
	id := dr.ids.Add(1)
	body, err := json.Marshal(map[string]any{"dataset": "flights", "rows": rows})
	if err != nil {
		panic(err)
	}
	rec := &ingestRecord{id: id, k: k, rows: rows, late: late}
	req, err := http.NewRequest(http.MethodPost, dr.b.base+"/api/ingest", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	req.Header.Set("X-Tenant", "ingest")
	rec.start = time.Since(dr.origin)
	resp, err := dr.b.client.Do(req)
	var ack struct {
		Epoch int64  `json:"epoch"`
		Error string `json:"error"`
	}
	if err == nil {
		rec.code = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&ack)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.end = time.Since(dr.origin)
	switch {
	case err != nil:
		rec.err = err.Error()
	case ack.Error != "":
		rec.err = ack.Error
	default:
		rec.epoch = ack.Epoch
		for {
			cur := dr.ack.Load()
			if ack.Epoch <= cur || dr.ack.CompareAndSwap(cur, ack.Epoch) {
				break
			}
		}
	}
	return rec
}

// closedLoop runs n query clients, each taking whole sessions from src
// and answering their turns one at a time, until the deadline passes.
// No request starts after the deadline; requests in flight finish.
func (dr *runner) closedLoop(src source, n int, deadline time.Duration) []*clientState {
	states := make([]*clientState, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		states[c] = newClientState(c)
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for time.Since(dr.origin) < deadline {
				session, turns := src.next()
				for i := range turns {
					if time.Since(dr.origin) >= deadline {
						break
					}
					dr.ask(cs, session, &turns[i], false)
				}
			}
		}(states[c])
	}
	wg.Wait()
	return states
}

// ingestLoop sends batch k at start + k*period (open loop) until the
// deadline, numbering batches from first.
func (dr *runner) ingestLoop(seed int64, first int, start, deadline time.Duration) []*ingestRecord {
	var out []*ingestRecord
	for k := 0; ; k++ {
		due := start + time.Duration(k)*ingestPeriod
		if due >= deadline {
			return out
		}
		now := time.Since(dr.origin)
		if now < due {
			time.Sleep(due - now)
			now = time.Since(dr.origin)
		}
		if now >= deadline {
			return out
		}
		out = append(out, dr.ingest(first+k, ingestRows(seed, first+k), now-due))
	}
}

// warm answers sessions (or listed turns) before timing, n clients wide.
func (dr *runner) warm(jobs [][]turn, sessions []string, n int) []*clientState {
	states := make([]*clientState, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		states[c] = newClientState(c)
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				for j := range jobs[i] {
					dr.ask(cs, sessions[i], &jobs[i][j], true)
				}
			}
		}(states[c])
	}
	wg.Wait()
	return states
}
