package main

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
)

// TestUniqueSourcesNeverRepeat checks that every family opening asks a
// query and that the cold workloads' streams never repeat a canonical
// query, for several seeds.
func TestUniqueSourcesNeverRepeat(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"explore-cold", "paper-scale"} {
		w, _ := workloadByName(name)
		for seed := int64(1); seed <= 3; seed++ {
			src := w.newSource(d, seed).(*uniqueSource)
			total := 0
			for _, f := range src.families {
				total += len(f.openings)
			}
			seen := map[string]bool{}
			answers := 0
			for i := 0; i < total/2; i++ {
				_, turns := src.next()
				for _, tu := range turns {
					if seen[tu.key] {
						t.Fatalf("%s seed %d: %q repeats a canonical query", name, seed, tu.input)
					}
					seen[tu.key] = true
					answers++
				}
			}
			t.Logf("%s seed %d: %d sessions, %d answers from %d openings", name, seed, total/2, answers, total)
		}
	}
}

// TestFamiliesKeepTheirShape checks that all openings of a family ask
// queries over the same number of aggregates.
func TestFamiliesKeepTheirShape(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"explore-cold", "paper-scale"} {
		w, _ := workloadByName(name)
		src := w.newSource(d, 1).(*uniqueSource)
		for i, f := range src.families {
			sizes := map[int]int{}
			for _, in := range f.openings {
				_, tu, ok := try(src.sim.fresh(), in, "this")
				if !ok {
					t.Fatalf("%s family %d: %q asks no query", name, i, in)
				}
				sizes[spaceSize(t, d, tu)]++
			}
			if len(sizes) != 1 {
				t.Errorf("%s family %d: openings span %v aggregates", name, i, sizes)
			}
		}
	}
}

func spaceSize(t *testing.T, d *olap.Dataset, tu turn) int {
	t.Helper()
	s, err := olap.NewSpace(d, tu.query)
	if err != nil {
		t.Fatal(err)
	}
	return s.Size()
}

// TestLoadgenTraffic checks that repeat-hot draws from cmd/loadgen's
// semcache universe of distinct canonical queries, each reachable through
// all of its phrasings, and that every step of the stream script asks a
// query.
func TestLoadgenTraffic(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	rs := newRepeatSource(d, 1).(*repeatSource)
	if len(rs.univ) != repeatDistinct {
		t.Fatalf("repeat-hot universe has %d canonical queries, want %d", len(rs.univ), repeatDistinct)
	}
	keys := map[string]bool{}
	for _, q := range rs.univ {
		for _, p := range q.phrasings {
			if p.key != q.phrasings[0].key {
				t.Fatalf("%q and %q are grouped but differ", p.input, q.phrasings[0].input)
			}
		}
		keys[q.phrasings[0].key] = true
	}
	if len(keys) != repeatDistinct {
		t.Fatalf("%d distinct keys, want %d", len(keys), repeatDistinct)
	}
	ls := newLiveSource(d, 1).(*scriptSource)
	distinct := map[string]bool{}
	for _, tu := range ls.turns {
		distinct[tu.key] = true
	}
	if len(ls.turns) != len(streamScript) || len(distinct) != 3 {
		t.Fatalf("stream script: %d turns over %d canonical queries, want %d over 3", len(ls.turns), len(distinct), len(streamScript))
	}
}

// TestCPUModel checks that the stamp's processor name reads as text.
func TestCPUModel(t *testing.T) {
	m := cpuModel()
	if m == "" || strings.ContainsRune(m, 0) {
		t.Fatalf("cpu model %q", m)
	}
	t.Logf("cpu model %q", m)
}
