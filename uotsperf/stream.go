package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"uots/internal/trajdb"
)

// Stream shapes shared by the workloads. Sources are zipf-hot over the
// vertex numbering, as uotsload draws them, and keywords are drawn from
// the keyword sets of the corpus's own trajectories, so every textual
// query names terms that occur.
const (
	zipfS  = 1.2
	queryK = 5
	lambda = 0.5
)

// searchBody is the rendered POST /search body.
type searchBody struct {
	VertexIDs []int32 `json:"vertexIds"`
	Keywords  string  `json:"keywords,omitempty"`
	Lambda    float64 `json:"lambda"`
	K         int     `json:"k"`
}

// query is one pre-rendered request: the exact bytes sent plus the
// decoded form the answer checks rebuild the engine query from.
type query struct {
	body []byte
	req  searchBody
}

// writeSample and writeTraj mirror the POST /trajectories body.
type writeSample struct {
	Vertex int32   `json:"vertex"`
	T      float64 `json:"t"`
}

type writeTraj struct {
	Samples  []writeSample `json:"samples"`
	Keywords string        `json:"keywords"`
}

// write is one pre-rendered ingest request.
type write struct {
	body  []byte
	trajs []writeTraj
}

// shape selects the query mix of a stream. The mix is stratified, not
// drawn: query i has minLocs + i mod (maxLocs-minLocs+1) sources and,
// when halfKeywords is set, every other block of those carries 1–2
// keywords. Every run then holds the same proportions of each query
// class, and only the vertices and terms inside a class vary with the
// seed; a drawn mix would move the median from run to run wherever the
// latency distribution has a gap between its classes.
type shape struct {
	minLocs, maxLocs int
	halfKeywords     bool
}

var (
	heavyShape = shape{minLocs: 1, maxLocs: 4, halfKeywords: true}
	lightShape = shape{minLocs: 1, maxLocs: 1}
)

// gen draws every stream of one run from a single seeded source. A
// stream is a pure function of (corpus, seed, stream name): each
// stream gets its own PCG stream so adding one never shifts another.
type gen struct {
	db   *trajdb.Store
	seed uint64
}

func newGen(db *trajdb.Store, seed uint64) *gen { return &gen{db: db, seed: seed} }

func (g *gen) rng(stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(g.seed, h))
}

// keywords draws 1–2 terms from a random trajectory's keyword set.
func (g *gen) keywords(rng *rand.Rand, max int) string {
	vocab := g.db.Vocab()
	for {
		kws := g.db.Keywords(trajdb.TrajID(rng.IntN(g.db.NumTrajectories())))
		if len(kws) == 0 {
			continue
		}
		n := 1 + rng.IntN(max)
		if n > len(kws) {
			n = len(kws)
		}
		words := make([]string, 0, n)
		for _, i := range rng.Perm(len(kws))[:n] {
			name, _ := vocab.Term(kws[i])
			words = append(words, name)
		}
		return strings.Join(words, " ")
	}
}

// queries renders n search bodies of the given shape. Sources are drawn
// by inverting the zipf distribution at the points of a randomly
// shifted R4 low-discrepancy sequence (one dimension per source slot,
// the shift drawn from the seed), so any prefix of the stream covers
// the hot and the cold vertices in close to their expected proportions.
// A source that repeats one already in the query is redrawn from the
// seeded generator.
func (g *gen) queries(stream string, sh shape, n int) []query {
	rng := g.rng(stream)
	nv := g.db.Graph().NumVertices()
	cdf := zipfCDF(nv)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nv-1))
	var shift [4]float64
	for d := range shift {
		shift[d] = rng.Float64()
	}
	out := make([]query, n)
	span := sh.maxLocs - sh.minLocs + 1
	for i := range out {
		locs := sh.minLocs + i%span
		req := searchBody{Lambda: lambda, K: queryK}
		for d := 0; d < locs; d++ {
			v := invertCDF(cdf, r4(i, d, shift[d]))
			for containsVertex(req.VertexIDs, v) {
				v = int32(zipf.Uint64())
			}
			req.VertexIDs = append(req.VertexIDs, v)
		}
		if sh.halfKeywords && (i/span)%2 == 1 {
			req.Keywords = g.keywords(rng, 2)
		}
		out[i] = query{body: mustJSON(req), req: req}
	}
	return out
}

// r4 is coordinate d of point i of the R4 sequence (additive recurrence
// on powers of the inverse of the four-dimensional golden ratio),
// rotated by shift.
func r4(i, d int, shift float64) float64 {
	const phi4 = 1.1673039782614187 // positive root of x^5 = x + 1
	alpha := math.Pow(1/phi4, float64(d+1))
	_, frac := math.Modf(shift + float64(i+1)*alpha)
	return frac
}

// zipfCDF is the cumulative distribution of rand.Zipf(s=zipfS, v=1)
// over vertices 0..n-1.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(1+float64(k), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func invertCDF(cdf []float64, u float64) int32 {
	k := sort.SearchFloat64s(cdf, u)
	return int32(min(k, len(cdf)-1))
}

// writes renders n ingest bodies of 1–3 trajectories each. Each new
// trajectory replays the route and clock of a corpus trajectory under
// corpus-vocabulary keywords, so it is valid by construction.
func (g *gen) writes(stream string, n int) []write {
	rng := g.rng(stream)
	out := make([]write, n)
	for i := range out {
		trajs := make([]writeTraj, 1+rng.IntN(3))
		for j := range trajs {
			src := g.db.Traj(trajdb.TrajID(rng.IntN(g.db.NumTrajectories())))
			samples := make([]writeSample, len(src.Samples))
			for k, s := range src.Samples {
				samples[k] = writeSample{Vertex: int32(s.V), T: s.T}
			}
			trajs[j] = writeTraj{Samples: samples, Keywords: g.keywords(rng, 3)}
		}
		out[i] = write{body: mustJSON(map[string]any{"trajectories": trajs}), trajs: trajs}
	}
	return out
}

func containsVertex(vs []int32, v int32) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("rendering %T: %v", v, err)) // plain structs always marshal
	}
	return b
}
