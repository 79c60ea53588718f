package web

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/speech"
	"repro/internal/voice"
)

// newPlanningServer serves flights with a rounds cap above what any
// sentence's playback affords, so how many rounds a sentence gets is set
// by its playback time on the simulated clock. The config carries one
// SimClock, which the server must not share across requests. Both
// caches are off: every answer is a cold plan.
func newPlanningServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 5000, Seed: 131})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	cfg := core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 100000,
		Percents:             []int{50, 100},
	}
	srv, err := NewServerWith(cfg, Options{SemCacheEntries: -1, SemCacheViews: -1},
		DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
	)
	if err != nil {
		t.Fatalf("NewServerWith: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestConcurrentColdAnswersEqualSerial checks that every vocalization
// plans on its own simulated clock: two cold answers computed at the same
// time must equal the same answers computed one after the other.
func TestConcurrentColdAnswersEqualSerial(t *testing.T) {
	queries := []map[string]string{
		{"session": "a", "dataset": "flights", "input": "break down by region and season", "method": "this"},
		{"session": "b", "dataset": "flights", "input": "break down by airline", "method": "this"},
	}

	_, serialTS := newPlanningServer(t)
	serial := make([]string, len(queries))
	for i, q := range queries {
		out, code := postQuery(t, serialTS, q)
		if code != 200 {
			t.Fatalf("serial query %d: status %d: %v", i, code, out)
		}
		serial[i], _ = out["speech"].(string)
	}

	srv, ts := newPlanningServer(t)
	hold := make(chan struct{})
	srv.holdVocalize = hold
	concurrent := make([]string, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q map[string]string) {
			defer wg.Done()
			out, code := postQuery(t, ts, q)
			if code != 200 {
				t.Errorf("concurrent query %d: status %d: %v", i, code, out)
				return
			}
			concurrent[i], _ = out["speech"].(string)
		}(i, q)
	}
	// Release both answers together once both hold admission slots.
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.InFlight() < len(queries) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.InFlight() < len(queries) {
		t.Fatalf("only %d of %d requests reached vocalization", srv.adm.InFlight(), len(queries))
	}
	close(hold)
	wg.Wait()

	for i := range queries {
		if serial[i] == "" {
			t.Fatalf("serial answer %d is empty", i)
		}
		if concurrent[i] != serial[i] {
			t.Errorf("query %q: concurrent answer differs from serial\n got  %q\n want %q",
				queries[i]["input"], concurrent[i], serial[i])
		}
	}
}
