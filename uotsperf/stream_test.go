package main

import (
	"bytes"
	"testing"

	"uots"
	"uots/internal/core"
	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// smallCorpus is a uotsdgen-shaped corpus small enough for unit tests.
func smallCorpus(t *testing.T, seed uint64) *trajdb.Store {
	t.Helper()
	g := uots.BRNLike(0.1, seed)
	vocab := uots.GenerateVocab(12, 80, 1.0, seed^0x5bf0f3a9)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 1500, MeanSamples: 20, Vocab: vocab, Seed: seed ^ 0x243f6a88,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func renderAll(db *trajdb.Store, seed uint64) streams {
	return renderStreams(newGen(db, seed), workloads["search-heavy"])
}

func TestStreamsRepeatForOneSeed(t *testing.T) {
	db := smallCorpus(t, 1)
	a, b := renderAll(db, 7), renderAll(db, 7)
	if len(a.queries) != len(b.queries) || len(a.writes) != len(b.writes) || len(a.writes) == 0 {
		t.Fatalf("stream sizes differ: %d/%d queries, %d/%d writes", len(a.queries), len(b.queries), len(a.writes), len(b.writes))
	}
	for i := range a.queries {
		if !bytes.Equal(a.queries[i].body, b.queries[i].body) {
			t.Fatalf("query %d differs:\n%s\n%s", i, a.queries[i].body, b.queries[i].body)
		}
	}
	if len(a.writeReads) != len(b.writeReads) || len(a.writeReads) == 0 {
		t.Fatalf("write-phase read streams: %d/%d queries", len(a.writeReads), len(b.writeReads))
	}
	for i := range a.writeReads {
		if !bytes.Equal(a.writeReads[i].body, b.writeReads[i].body) {
			t.Fatalf("write-phase query %d differs", i)
		}
	}
	for i := range a.writes {
		if !bytes.Equal(a.writes[i].body, b.writes[i].body) {
			t.Fatalf("write %d differs", i)
		}
	}
	heavyA := newGen(db, 7).queries("queries", heavyShape, 200)
	heavyB := newGen(db, 7).queries("queries", heavyShape, 200)
	for i := range heavyA {
		if !bytes.Equal(heavyA[i].body, heavyB[i].body) {
			t.Fatalf("heavy query %d differs", i)
		}
	}
}

func TestStreamsDifferAcrossSeeds(t *testing.T) {
	db := smallCorpus(t, 1)
	a := newGen(db, 7).queries("queries", heavyShape, 50)
	b := newGen(db, 8).queries("queries", heavyShape, 50)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, b[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 rendered identical streams")
	}
}

// TestStreamShapes pins the workload shapes: source counts, keyword
// share, and keywords that all occur in the corpus vocabulary.
func TestStreamShapes(t *testing.T) {
	db := smallCorpus(t, 2)
	n := db.Graph().NumVertices()
	heavy := newGen(db, 3).queries("queries", heavyShape, 2000)
	withKW := 0
	for _, q := range heavy {
		if l := len(q.req.VertexIDs); l < 1 || l > 4 {
			t.Fatalf("heavy query with %d sources", l)
		}
		for _, v := range q.req.VertexIDs {
			if v < 0 || int(v) >= n {
				t.Fatalf("source %d outside the %d-vertex network", v, n)
			}
		}
		if q.req.Keywords != "" {
			withKW++
			words := textual.Tokenize(q.req.Keywords)
			if len(words) < 1 || len(words) > 2 {
				t.Fatalf("keyword query %q has %d terms", q.req.Keywords, len(words))
			}
			for _, w := range words {
				if _, ok := db.Vocab().Lookup(w); !ok {
					t.Fatalf("keyword %q is not in the corpus vocabulary", w)
				}
			}
		}
	}
	if withKW != 1000 {
		t.Fatalf("%d of 2000 heavy queries carry keywords, want half", withKW)
	}
	for _, q := range newGen(db, 3).queries("queries", lightShape, 500) {
		if len(q.req.VertexIDs) != 1 || q.req.Keywords != "" {
			t.Fatalf("light query %s is not a single spatial source", q.body)
		}
	}
	for i, w := range newGen(db, 3).writes("writes", 100) {
		if len(w.trajs) < 1 || len(w.trajs) > 3 {
			t.Fatalf("write %d carries %d trajectories", i, len(w.trajs))
		}
		for _, tr := range w.trajs {
			samples := make([]trajdb.Sample, len(tr.Samples))
			for j, s := range tr.Samples {
				samples[j] = trajdb.Sample{V: roadnet.VertexID(s.Vertex), T: s.T}
			}
			if err := trajdb.ValidateSamples(db.Graph(), samples); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
}

// TestReplayCountersExact: the core work counters of the replay repeat
// exactly for one seed and move with the seed.
func TestReplayCountersExact(t *testing.T) {
	db := smallCorpus(t, 3)
	eng, err := core.NewEngine(db, core.Options{Index: index.NewTrajBounds(db, roadnet.NewLandmarks(db.Graph(), 16, 0))})
	if err != nil {
		t.Fatal(err)
	}
	counters := func(seed uint64) work {
		w, _, _, _, err := replay(eng, db.Vocab(), newGen(db, seed).queries("queries", heavyShape, 60))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	first, second, other := counters(5), counters(5), counters(6)
	if first != second {
		t.Fatalf("one seed, two replays:\n%v\n%v", first, second)
	}
	if first == other {
		t.Fatalf("seeds 5 and 6 did identical work: %v", first)
	}
	if first.queries != 60 || first.settled == 0 || first.candidates == 0 {
		t.Fatalf("replay did no work: %v", first)
	}
}

func TestDistQuantiles(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	d := floatDist(v)
	// Nearest rank: the median of 1..1000 is the 500th value; the p99
	// window spans ranks 985..995, whose mean is 990.
	if d.n != 1000 || d.p50 != 500 || d.p99 != 990 || d.max != 1000 {
		t.Fatalf("dist = %+v", d)
	}
	if got := floatDist([]float64{7}); got.p50 != 7 || got.p99 != 7 {
		t.Fatalf("one sample: %+v", got)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", b)
	}
}
