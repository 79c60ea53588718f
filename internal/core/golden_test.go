package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/speech"
	"repro/internal/voice"
)

// goldenSpeechesFile pins the holistic planner's committed speeches on
// fixed seeds. Any change to the speech tree, the UCT kernel or the RNG
// stream that moves one committed sentence, one per-sentence visit count
// or one bit of a mean reward shows up as a diff against this file.
const goldenSpeechesFile = "testdata/golden_speeches.txt"

// goldenSpeeches renders the holistic answers to Figure 3's eight queries
// over a 20 k-row flights table, for seeds 1-6 and two tree node caps: the
// eager-expansion default and a tight cap under which most of the tree
// expands lazily during sampling. Per committed sentence it records the
// planning rounds, the committed child's visits and mean reward, and the
// runner-up's mean reward and sentence; rewards are printed in %x so the
// comparison is bit-exact.
func goldenSpeeches(t *testing.T) string {
	t.Helper()
	s, err := experiments.NewSetup(20000, 1)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	var b strings.Builder
	for _, nodeCap := range []int{100000, 1024} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, spec := range experiments.Figure3Queries {
				q, err := s.FlightsQuery(spec.Filter, spec.Dims)
				if err != nil {
					t.Fatalf("FlightsQuery %v: %v", spec, err)
				}
				tr := &core.Trace{}
				out, err := core.NewHolistic(s.Flights, q, core.Config{
					Format:               speech.PercentFormat,
					Seed:                 seed,
					Clock:                voice.NewSimClock(),
					SimRoundCost:         time.Millisecond,
					MaxRoundsPerSentence: 500,
					MaxTreeNodes:         nodeCap,
					Trace:                tr,
				}).Vocalize()
				if err != nil {
					t.Fatalf("Vocalize %v seed %d cap %d: %v", spec, seed, nodeCap, err)
				}
				fmt.Fprintf(&b, "query %s,%s seed %d cap %d nodes %d\n",
					spec.Filter, spec.Dims, seed, nodeCap, tr.TreeNodes)
				fmt.Fprintf(&b, "  speech %q\n", out.Text())
				for i, st := range tr.Sentences {
					fmt.Fprintf(&b, "  sentence %d rounds %d visits %d best %x runner-up %x %q\n",
						i+1, st.Rounds, st.BestVisits, st.BestMeanReward, st.RunnerUpReward, st.RunnerUp)
				}
			}
		}
	}
	return b.String()
}

// TestGoldenSpeeches compares the rendered answers byte for byte with
// the checked-in fixture and reports the first line that differs.
func TestGoldenSpeeches(t *testing.T) {
	if testing.Short() {
		t.Skip("golden speeches in short mode")
	}
	want, err := os.ReadFile(goldenSpeechesFile)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	got := goldenSpeeches(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", goldenSpeechesFile, i+1, g, w)
		}
	}
}
