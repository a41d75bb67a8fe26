package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// scoreTol absorbs summation-order differences between the expansion
// engine and the exhaustive oracle.
const scoreTol = 1e-9

// answer is the part of a /search reply the checks compare.
type answer struct {
	Results []struct {
		Trajectory int32   `json:"trajectory"`
		Score      float64 `json:"score"`
	} `json:"results"`
}

func parseAnswer(body []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(body, &a)
	return a, err
}

// engineQuery rebuilds the engine query the server derives from a body.
func engineQuery(vocab *textual.Vocab, req searchBody) core.Query {
	q := core.Query{Lambda: req.Lambda, K: req.K}
	for _, v := range req.VertexIDs {
		q.Locations = append(q.Locations, roadnet.VertexID(v))
	}
	if req.Keywords != "" {
		q.Keywords = vocab.InternAll(textual.Tokenize(req.Keywords))
	}
	return q
}

// checker compares served answers with in-process oracles over the same
// corpus. Every mismatch is counted as a failed operation.
type checker struct {
	db    *trajdb.Store
	eng   *core.Engine
	vocab *textual.Vocab
	memo  map[string][]core.Result // monolithic answers by request body
	notes []string
}

func newChecker(db *trajdb.Store) (*checker, error) {
	eng, err := core.NewEngine(db, core.Options{})
	if err != nil {
		return nil, err
	}
	return &checker{db: db, eng: eng, vocab: db.Vocab(), memo: map[string][]core.Result{}}, nil
}

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// againstExhaustive checks a sample of the reads whose store state is
// known against the exhaustive oracle: equal scores at every rank, and
// the same trajectories at every rank not tied with the k-th score. In
// a phase without writes every read is known (seen = 0). With writes,
// the known reads are those of the client that also carries them: a
// read with seen = s saw the boot corpus plus the first base+s writes of
// applied, which the oracle's replica store replays in ack order.
func (c *checker) againstExhaustive(queries []query, reads []op, applied [][]writeTraj, base, sample int) (checked, bad int) {
	var known []op
	for _, o := range reads {
		if o.ok() && o.seen >= 0 {
			known = append(known, o)
		}
	}
	if len(known) == 0 {
		return 0, 0
	}
	var picked []op
	for i, step := 0, max(1, len(known)/sample); i < len(known) && len(picked) < sample; i += step {
		picked = append(picked, known[i])
	}
	sort.SliceStable(picked, func(i, j int) bool { return picked[i].seen < picked[j].seen })
	replica := trajdb.NewDynamicFromStore(c.db)
	replayed := 0
	for _, o := range picked {
		for ; replayed < base+o.seen; replayed++ {
			for _, t := range applied[replayed] {
				if _, err := replica.AddWithKeywords(toSamples(t.Samples), textual.Tokenize(t.Keywords)); err != nil {
					c.note("replica: %v", err)
					return checked, bad + 1
				}
			}
		}
		checked++
		q := queries[o.idx%len(queries)]
		got, err := parseAnswer(o.body)
		if err != nil {
			bad++
			c.note("query %d: undecodable answer: %v", o.idx, err)
			continue
		}
		snap, _ := replica.Snapshot()
		eng, err := core.NewEngine(snap, core.Options{})
		var want []core.Result
		if err == nil {
			want, _, err = eng.ExhaustiveSearchCtx(context.Background(), engineQuery(c.vocab, q.req))
		}
		if err != nil {
			bad++
			c.note("query %d: oracle: %v", o.idx, err)
			continue
		}
		if msg := sameScores(got, want); msg != "" {
			bad++
			c.note("query %d %s: %s", o.idx, q.body, msg)
		}
	}
	return checked, bad
}

func toSamples(ws []writeSample) []trajdb.Sample {
	out := make([]trajdb.Sample, len(ws))
	for i, s := range ws {
		out[i] = trajdb.Sample{V: roadnet.VertexID(s.Vertex), T: s.T}
	}
	return out
}

func sameScores(got answer, want []core.Result) string {
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got.Results), len(want))
	}
	if len(want) == 0 {
		return ""
	}
	kth := want[len(want)-1].Score
	gotIDs, wantIDs := map[int32]bool{}, map[int32]bool{}
	for i, w := range want {
		g := got.Results[i]
		if math.Abs(g.Score-w.Score) > scoreTol {
			return fmt.Sprintf("rank %d score %.12f, oracle %.12f", i, g.Score, w.Score)
		}
		if w.Score-kth > scoreTol {
			wantIDs[int32(w.Traj)] = true
		}
		if g.Score-kth > scoreTol {
			gotIDs[g.Trajectory] = true
		}
	}
	for id := range wantIDs {
		if !gotIDs[id] {
			return fmt.Sprintf("trajectory %d missing above the k-th score", id)
		}
	}
	return ""
}

// againstMonolith requires every answer to equal the monolithic
// engine's answer exactly: same trajectories, same order, same scores.
func (c *checker) againstMonolith(queries []query, reads []op) (checked, bad int) {
	for _, o := range reads {
		if !o.ok() {
			continue
		}
		checked++
		q := queries[o.idx%len(queries)]
		want, seen := c.memo[string(q.body)]
		if !seen {
			var err error
			want, _, err = c.eng.SearchCtx(context.Background(), engineQuery(c.vocab, q.req))
			if err != nil {
				bad++
				c.note("query %d: monolith: %v", o.idx, err)
				continue
			}
			c.memo[string(q.body)] = want
		}
		got, err := parseAnswer(o.body)
		if err != nil {
			bad++
			c.note("query %d: undecodable answer: %v", o.idx, err)
			continue
		}
		if msg := identical(got, want); msg != "" {
			bad++
			c.note("query %d %s: %s", o.idx, q.body, msg)
		}
	}
	return checked, bad
}

func identical(got answer, want []core.Result) string {
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d results, monolith has %d", len(got.Results), len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		if g.Trajectory != int32(w.Traj) || g.Score != w.Score {
			return fmt.Sprintf("rank %d is (%d, %v), monolith (%d, %v)", i, g.Trajectory, g.Score, w.Traj, w.Score)
		}
	}
	return ""
}

// ackedWrites lists the trajectories of every acknowledged write, in
// the order they were acknowledged.
func ackedWrites(writes []write, ops []op) [][]writeTraj {
	var out [][]writeTraj
	for _, o := range ops {
		if o.ok() {
			out = append(out, writes[o.idx].trajs)
		}
	}
	return out
}

// ackedIDs lists the trajectory IDs of every acknowledged write, with
// the trajectories that write sent.
func ackedIDs(writes []write, ops []op) (ids []int64, sent []writeTraj, bad int) {
	for _, o := range ops {
		if !o.ok() {
			continue
		}
		var ack struct {
			IDs []int64 `json:"ids"`
		}
		trajs := writes[o.idx].trajs
		if err := json.Unmarshal(o.body, &ack); err != nil || len(ack.IDs) != len(trajs) {
			bad++
			continue
		}
		ids = append(ids, ack.IDs...)
		sent = append(sent, trajs...)
	}
	return ids, sent, bad
}

// readBack fetches every acknowledged trajectory; each must carry the
// vertices and keywords that were sent.
func readBack(client *http.Client, base string, ids []int64, sent []writeTraj) (bodies [][]byte, bad int, firstErr string) {
	bodies = make([][]byte, len(ids))
	for i, id := range ids {
		status, body := getBody(client, base+"/trajectory/"+strconv.FormatInt(id, 10))
		bodies[i] = body
		if status != http.StatusOK {
			bad++
			if firstErr == "" {
				firstErr = fmt.Sprintf("trajectory %d: status %d", id, status)
			}
			continue
		}
		if msg := sameTrajectory(body, sent[i]); msg != "" {
			bad++
			if firstErr == "" {
				firstErr = fmt.Sprintf("trajectory %d: %s", id, msg)
			}
		}
	}
	return bodies, bad, firstErr
}

func sameTrajectory(body []byte, sent writeTraj) string {
	var got struct {
		Samples []struct {
			Vertex int32 `json:"vertex"`
		} `json:"samples"`
		Keywords []string `json:"keywords"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if len(got.Samples) != len(sent.Samples) {
		return fmt.Sprintf("%d samples, sent %d", len(got.Samples), len(sent.Samples))
	}
	for i, s := range got.Samples {
		if s.Vertex != sent.Samples[i].Vertex {
			return fmt.Sprintf("sample %d at vertex %d, sent %d", i, s.Vertex, sent.Samples[i].Vertex)
		}
	}
	want := map[string]bool{}
	for _, w := range textual.Tokenize(sent.Keywords) {
		want[w] = true
	}
	have := map[string]bool{}
	for _, k := range got.Keywords {
		have[k] = true
	}
	if len(want) != len(have) {
		return fmt.Sprintf("keywords %v, sent %q", got.Keywords, sent.Keywords)
	}
	for w := range want {
		if !have[w] {
			return fmt.Sprintf("keywords %v, sent %q", got.Keywords, sent.Keywords)
		}
	}
	return ""
}

func getBody(client *http.Client, url string) (int, []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}
