package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/datagen"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/semcache"
)

// clients is the largest number of closed-loop client goroutines (and
// HTTP connections): the 2 CPUs of the machine the workloads were sized
// on.
const clients = 2

// turn is one spoken command with what the benchmark expects the server
// to make of it.
type turn struct {
	input  string
	method string
	// query is the canonical (semcache-normalized) query the command
	// leaves the session in; key is its semcache key.
	query olap.Query
	key   string
}

// source hands out sessions (ordered turns) to the clients. next is safe
// for concurrent use; the sequence it yields is fixed by the seed, only
// which client takes which session depends on timing.
type source interface {
	next() (session string, turns []turn)
}

// workload describes one named traffic mix.
type workload struct {
	name string
	why  string
	rows int
	// queryClients is the number of closed-loop query clients.
	queryClients int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// newSource builds the request stream for a seed; the same seed gives
	// the same stream.
	newSource func(d *olap.Dataset, seed int64) source
	// warmup lists fixed commands, each answered in its own session
	// before timing. They lie outside the measured query universe, so
	// set-up does the same work whatever the seed, and they include both
	// vocalizers, so the traced replay times both paths' layers.
	warmup []turn
	// fillCache, when set, warms tier A/B by asking every universe query
	// once per method before timing.
	fillCache bool
	// preroll is a number of requests from the workload's own stream
	// answered before timing, so per-session server state (the session
	// table, the query log ring) has reached its steady size.
	preroll int
	// ingest, when set, runs the ingest client beside one query client.
	ingest bool
}

var workloads = []workload{
	{
		name:         "explore-cold",
		why:          "distinct exploration queries at 20k rows: every answer runs the full holistic planner and the semantic cache only misses",
		rows:         20000,
		queryClients: 2,
		setupReps:    15,
		newSource:    newExploreSource,
		warmup: []turn{{input: "break down by season for Boston", method: "this"},
			{input: "break down by airline for Chicago", method: "this"},
			{input: "break down by airline for Chicago", method: "prior"}},
	},
	{
		name:         "repeat-hot",
		why:          "Zipf-popular rephrased queries in fresh sessions: after warm-up nearly every answer is a semantic-cache replay and the planner idles",
		rows:         20000,
		queryClients: 1,
		setupReps:    5,
		newSource:    newRepeatSource,
		fillCache:    true,
		preroll:      2000,
	},
	{
		name:         "paper-scale",
		why:          "Figure 3 query shapes and drill-downs at 5.3M rows, alternating holistic and prior: full scans and sampling over a table larger than cache",
		rows:         datagen.PaperFlightRows,
		queryClients: 2,
		setupReps:    5,
		newSource:    newPaperSource,
		warmup: []turn{{input: "break down by season for Boston", method: "this"},
			{input: "break down by airline for Chicago", method: "prior"}},
	},
	{
		name:         "live-ingest",
		why:          "64-row ingest batches every 25 ms beside repeated and time-windowed questions at 20k rows: cache hits between epoch bumps, appends and purges",
		rows:         20000,
		queryClients: 1,
		setupReps:    15,
		newSource:    newLiveSource,
		warmup: []turn{{input: "break down by airline for Boston", method: "this"},
			{input: "break down by airline for Boston", method: "prior"}},
		ingest: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simulator replays commands on client-side nlq sessions to learn the
// canonical query each command produces. Only the dataset's hierarchies
// matter to the parser, so the base dataset serves every epoch.
type simulator struct {
	proto *nlq.Session
}

func newSimulator(d *olap.Dataset) *simulator {
	s, err := nlq.NewSession(d, olap.Avg, measureCol, measureDesc)
	if err != nil {
		panic(err) // the flights dataset always has dimensions
	}
	return &simulator{proto: s}
}

func (sim *simulator) fresh() *nlq.Session { return sim.proto.Clone() }

// try applies input to a clone of sess and returns the resulting turn,
// or ok=false when the command would not produce a spoken answer.
func try(sess *nlq.Session, input, method string) (*nlq.Session, turn, bool) {
	c := sess.Clone()
	resp, err := c.Parse(input)
	if err != nil || !resp.IsQuery {
		return nil, turn{}, false
	}
	q := semcache.Normalize(c.Query())
	return c, turn{input: input, method: method, query: q, key: semcache.Key(q)}, true
}

// memberNames lists the spoken names of a hierarchy's members at the
// given levels.
func memberNames(d *olap.Dataset, hierarchy string, levels ...int) []string {
	h := d.HierarchyByName(hierarchy)
	var out []string
	for _, l := range levels {
		for _, m := range h.MembersAt(l) {
			out = append(out, m.Name)
		}
	}
	return out
}

// uniqueSource generates sessions whose canonical queries never repeat
// within a run. A session opens with its family's next unused opening
// command (the openings are enumerated in a seeded order) and continues
// with seeded follow-up commands. Families take turns in a fixed order,
// so every run sees the same mix of query shapes and only the members
// vary.
type uniqueSource struct {
	mu       sync.Mutex
	prefix   string
	rng      *rand.Rand
	sim      *simulator
	families []*family
	pos      int
	seen     map[string]bool
	sessions int
	// alternate asks even turns of a session (the opening first) with the
	// holistic vocalizer and odd turns with the prior baseline.
	alternate bool
}

// family is one session shape: opening commands to enumerate, then
// follow-up steps that each draw a command.
type family struct {
	openings []string
	steps    []func(rng *rand.Rand) string
}

func (u *uniqueSource) next() (string, []turn) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for attempt := 0; attempt < len(u.families); attempt++ {
		fam := u.families[u.pos]
		u.pos = (u.pos + 1) % len(u.families)
		if turns := u.instantiate(fam); len(turns) > 0 {
			u.sessions++
			return fmt.Sprintf("%s-%d", u.prefix, u.sessions), turns
		}
	}
	panic("voicebench: query universe exhausted; lengthen the family lists")
}

// method is the vocalizer for the given turn of a session.
func (u *uniqueSource) method(turn int) string {
	if u.alternate && turn%2 == 1 {
		return "prior"
	}
	return "this"
}

// accept records a fresh canonical query and reports whether it was new.
func (u *uniqueSource) accept(t turn) bool {
	if u.seen[t.key] {
		return false
	}
	u.seen[t.key] = true
	return true
}

// instantiate opens a session with the family's next unused opening and
// draws each follow-up up to a few times until it yields a fresh
// canonical query; a step that cannot ends the session.
func (u *uniqueSource) instantiate(fam *family) []turn {
	var out []turn
	var sess = u.sim.fresh()
	for len(out) == 0 && len(fam.openings) > 0 {
		input := fam.openings[0]
		fam.openings = fam.openings[1:]
		if next, t, ok := try(sess, input, u.method(0)); ok && u.accept(t) {
			sess = next
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	for _, step := range fam.steps {
		var got bool
		for tries := 0; tries < 8 && !got; tries++ {
			next, t, ok := try(sess, step(u.rng), u.method(len(out)))
			if ok && u.accept(t) {
				sess, got = next, true
				out = append(out, t)
			}
		}
		if !got {
			break
		}
	}
	return out
}

func pick(list ...string) func(*rand.Rand) string {
	return func(rng *rand.Rand) string { return list[rng.Intn(len(list))] }
}

// crossed returns template with its two %s slots filled by every pair of
// members from a and b.
func crossed(template string, a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			out = append(out, fmt.Sprintf(template, x, y))
		}
	}
	return out
}

// each returns template with its %s slot filled by every member of list.
func each(template string, list []string) []string {
	out := make([]string, len(list))
	for i, x := range list {
		out[i] = fmt.Sprintf(template, x)
	}
	return out
}

// join concatenates lists into a new slice.
func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// levels holds the spoken member names at each level the workloads
// filter on.
type levels struct {
	regions, states, seasons, months, airlines []string
}

func levelsOf(d *olap.Dataset) levels {
	return levels{
		regions:  memberNames(d, "start airport", 1),
		states:   memberNames(d, "start airport", 2),
		seasons:  memberNames(d, "flight date", 1),
		months:   memberNames(d, "flight date", 2),
		airlines: memberNames(d, "airline", 1),
	}
}

// newExploreSource: exploration sessions whose opening is a breakdown
// filtered to one member of each of two hierarchies, followed by a fixed
// refinement. A family's filter slots each take members of one level, so
// a family always asks the same shape of query and only the members vary.
func newExploreSource(d *olap.Dataset, seed int64) source {
	l := levelsOf(d)
	then := func(cmd string) []func(*rand.Rand) string { return []func(*rand.Rand) string{pick(cmd)} }
	fams := []*family{
		{crossed("break down by season for %s and %s", l.states, l.airlines), then("drill down")},
		{crossed("break down by month for %s and %s", l.states, l.airlines), then("roll up")},
		{crossed("break down by airline for %s and %s", l.seasons, l.states), then("break down by month")},
		{crossed("break down by state and season for %s in %s", l.airlines, l.months), then("roll up")},
		{crossed("break down by city for %s and %s", l.months, l.airlines), then("drill down")},
		{crossed("how does cancellation depend on region for %s and %s", l.months, l.airlines), nil},
	}
	return newUniqueSource("ec", seed, d, fams, false)
}

// newPaperSource: the Figure 3 query shapes R, D, A and N-DA — region,
// season and airline breakdowns, filtered the way W-R, N-D and N-DA are —
// with the filter members varied at a fixed level, each followed by its
// drill-downs; openings use the holistic vocalizer and follow-ups the
// prior baseline. The unfiltered RD and the W-RA shape have too few
// distinct instances to fill a run without repeating a query, so they are
// left out.
func newPaperSource(d *olap.Dataset, seed int64) source {
	l := levelsOf(d)
	drill := pick("drill down")
	fams := []*family{
		{crossed("how does cancellation depend on region for %s and %s", l.months, l.airlines), []func(*rand.Rand) string{drill, drill}},
		{crossed("break down by season for %s and %s", l.states, l.airlines), []func(*rand.Rand) string{drill}},
		{crossed("break down by airline for %s and %s", l.states, l.months), []func(*rand.Rand) string{pick("break down by month")}},
		{each("break down by season and airline for %s", join(l.states, memberNames(d, "start airport", 3, 4))), []func(*rand.Rand) string{pick("drill down by month")}},
	}
	return newUniqueSource("ps", seed, d, fams, true)
}

func newUniqueSource(prefix string, seed int64, d *olap.Dataset, fams []*family, alternate bool) *uniqueSource {
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fams {
		rng.Shuffle(len(f.openings), func(a, b int) { f.openings[a], f.openings[b] = f.openings[b], f.openings[a] })
	}
	return &uniqueSource{
		prefix:    prefix,
		rng:       rng,
		sim:       newSimulator(d),
		families:  fams,
		seen:      make(map[string]bool),
		alternate: alternate,
	}
}

// canonQuery is one canonical query with its equivalent phrasings.
type canonQuery struct {
	phrasings []turn
}

// universe groups candidate phrasings by the canonical query they parse
// to, in first-seen order.
func universe(sim *simulator, phrasings []string) []canonQuery {
	var out []canonQuery
	index := map[string]int{}
	for _, p := range phrasings {
		_, t, ok := try(sim.fresh(), p, "")
		if !ok {
			continue
		}
		i, seen := index[t.key]
		if !seen {
			i = len(out)
			index[t.key] = i
			out = append(out, canonQuery{})
		}
		out[i].phrasings = append(out[i].phrasings, t)
	}
	return out
}

// repeatDistinct and repeatZipfS are cmd/loadgen's semcache workload
// defaults (-distinct, -zipf-s): repeat-hot draws the same Zipf
// popularity over the same canonical queries.
const (
	repeatDistinct = 12
	repeatZipfS    = 1.2
)

// semcachePhrasings renders cmd/loadgen's semcache universe: "how does
// cancellation depend on X" for single dimensions, then cross-hierarchy
// pairs in both orders, with each dimension's spoken aliases, in
// loadgen's order (its first repeatDistinct canonical queries are the
// ones it draws from at its defaults).
func semcachePhrasings() []string {
	dims := []struct {
		hierarchy string
		aliases   []string
	}{
		{"airport", []string{"region"}},
		{"date", []string{"season"}},
		{"airline", []string{"airline", "carrier", "operator"}},
		{"airport", []string{"state"}},
		{"date", []string{"month"}},
		{"airport", []string{"city"}},
	}
	var out []string
	add := func(s string) { out = append(out, "how does cancellation depend on "+s) }
	for _, d := range dims {
		for _, a := range d.aliases {
			add(a)
		}
	}
	for i, a := range dims {
		for _, b := range dims[i+1:] {
			if a.hierarchy == b.hierarchy {
				continue
			}
			for _, x := range a.aliases {
				for _, y := range b.aliases {
					add(x + " and " + y)
					add(y + " and " + x)
				}
			}
		}
	}
	return out
}

// repeatSource draws Zipf-popular canonical queries through random
// equivalent phrasings, each in a fresh session, with mixed vocalizers.
// Popularity follows the universe's fixed order; the seed drives the draws.
type repeatSource struct {
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	univ []canonQuery
	n    int
}

func newRepeatSource(d *olap.Dataset, seed int64) source {
	rng := rand.New(rand.NewSource(seed))
	univ := universe(newSimulator(d), semcachePhrasings())
	if len(univ) < repeatDistinct {
		panic(fmt.Sprintf("voicebench: %d canonical queries in the semcache universe, want %d", len(univ), repeatDistinct))
	}
	univ = univ[:repeatDistinct]
	return &repeatSource{
		rng:  rng,
		zipf: rand.NewZipf(rng, repeatZipfS, 1, uint64(len(univ)-1)),
		univ: univ,
	}
}

func (r *repeatSource) next() (string, []turn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.univ[r.zipf.Uint64()]
	t := q.phrasings[r.rng.Intn(len(q.phrasings))]
	r.n++
	// The vocalizers alternate, so each slice of a run gets the same mix.
	t.method = "prior"
	if r.n%2 == 0 {
		t.method = "this"
	}
	return fmt.Sprintf("rh-%d", r.n), []turn{t}
}

// all lists every (query, method) pair once, for warming tier A.
func (r *repeatSource) all() []turn {
	var out []turn
	for _, q := range r.univ {
		for _, m := range []string{"this", "prior"} {
			t := q.phrasings[0]
			t.method = m
			out = append(out, t)
		}
	}
	return out
}

// streamScript is cmd/loadgen's stream workload script: an equivalent
// re-phrasing of one breakdown, a window narrowing to the last hour, a
// windowed re-ask, the widening back out, and another breakdown.
var streamScript = []string{
	"how does cancellation depend on region and season",
	"how does cancellation depend on season and region",
	"in the last hour",
	"how does cancellation depend on region and season",
	"all time",
	"how does cancellation depend on airline",
}

// liveHolisticEvery sets live-ingest's vocalizer mix: every
// liveHolisticEvery-th request is holistic, the rest ask for the prior
// baseline. cmd/loadgen's stream workload asks everything holistically;
// see NOTES.md for why this workload does not.
const liveHolisticEvery = 1000

// scriptSource hands out sessions that each walk streamScript from its
// start, as cmd/loadgen's stream sessions do, so the sessions' window
// state stays aligned and equivalent questions collide in the cache.
// Each ingest batch purges the cached answers, so the first answer to
// each of the script's three canonical queries after a batch is computed
// again over the grown table and the rest of the epoch's answers are
// replays. The holistic answers are always cold, since a plan outlasts
// an ingest period, and are scored for quality_mean.
type scriptSource struct {
	mu       sync.Mutex
	turns    []turn
	n        int
	sessions int
}

func newLiveSource(d *olap.Dataset, seed int64) source {
	sess := newSimulator(d).fresh()
	var turns []turn
	for _, input := range streamScript {
		next, t, ok := try(sess, input, "")
		if !ok {
			panic(fmt.Sprintf("voicebench: stream script command %q asks no query", input))
		}
		sess = next
		turns = append(turns, t)
	}
	return &scriptSource{turns: turns}
}

func (s *scriptSource) next() (string, []turn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]turn(nil), s.turns...)
	for i := range out {
		s.n++
		out[i].method = "prior"
		if s.n%liveHolisticEvery == 0 {
			out[i].method = "this"
		}
	}
	s.sessions++
	return fmt.Sprintf("li-%d", s.sessions), out
}

// ingestRows returns the k-th ingest batch of a run.
func ingestRows(seed int64, k int) []datagen.FlightRow {
	return datagen.FlightRows(seed*1_000_003+int64(k), ingestBatchRows)
}
