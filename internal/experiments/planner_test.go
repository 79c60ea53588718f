package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPlannerSmoke runs the full planner benchmark at toy scale and checks
// the result's internal consistency.
func TestPlannerSmoke(t *testing.T) {
	r, err := Planner(PlannerConfig{Rows: 8000, Seed: 12, Rounds: 300, Dims: "RD"})
	if err != nil {
		t.Fatalf("Planner: %v", err)
	}
	if !r.IdenticalChoice {
		t.Error("both searches should choose the identical speech")
	}
	if r.SpeechesScored < 50 {
		t.Errorf("scored only %d speeches", r.SpeechesScored)
	}
	if r.ScorerSpeedup <= 0 {
		t.Errorf("scorer speedup missing, got %.2fx", r.ScorerSpeedup)
	}
	if r.RoundsPerSec <= 0 {
		t.Error("sampling throughput missing")
	}
	if r.Gomaxprocs <= 0 {
		t.Error("gomaxprocs stamp missing")
	}
	if r.AllocsPerRound <= 0 {
		t.Error("allocation accounting missing")
	}

	var buf bytes.Buffer
	PrintPlanner(&buf, r)
	if !strings.Contains(buf.String(), "incremental scorer") {
		t.Errorf("summary missing scorer line:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"scorer_speedup\"") {
		t.Error("JSON missing scorer_speedup field")
	}
}
