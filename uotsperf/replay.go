package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"uots/internal/core"
	"uots/internal/textual"
)

// replayLen is how many queries from the head of a workload's stream
// the single-goroutine replay runs. The head is fixed by the seed, so
// the work counters it yields are exact and repeat run to run.
func replayLen(wl workload) int {
	if wl.shape.maxLocs > 1 {
		return 120
	}
	return 1000
}

// work is the summed SearchStats of a replay.
type work struct {
	queries                                int
	settled, probes, scans, visited        int
	candidates, textScored, landmarkPrunes int
	results, earlyTerminated               int
	maxSettled, maxProbes                  int
}

// replay runs queries one after another on eng, on this goroutine, and
// returns the work they did, each query's time, and the heap
// allocations made meanwhile.
func replay(eng *core.Engine, vocab *textual.Vocab, queries []query) (w work, times []time.Duration, mallocs, allocBytes uint64, err error) {
	qs := make([]core.Query, len(queries))
	for i, q := range queries {
		qs[i] = engineQuery(vocab, q.req)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		t0 := time.Now()
		res, st, err := eng.SearchCtx(context.Background(), q)
		times = append(times, time.Since(t0))
		if err != nil {
			return w, times, 0, 0, err
		}
		w.queries++
		w.settled += st.SettledVertices
		w.probes += st.Probes
		w.scans += st.ScanEvents
		w.visited += st.VisitedTrajectories
		w.candidates += st.Candidates
		w.textScored += st.TextScored
		w.landmarkPrunes += st.LandmarkPrunes
		w.results += len(res)
		if st.EarlyTerminated {
			w.earlyTerminated++
		}
		w.maxSettled = max(w.maxSettled, st.SettledVertices)
		w.maxProbes = max(w.maxProbes, st.Probes)
	}
	runtime.ReadMemStats(&after)
	return w, times, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// replayLayer reports the core layer from the replay: exact work per
// query, uncontended search time, and allocations per query.
func replayLayer(res *result, eng *core.Engine, vocab *textual.Vocab, queries []query, wl workload) {
	n := min(replayLen(wl), len(queries))
	w, times, mallocs, allocBytes, err := replay(eng, vocab, queries[:n])
	if err != nil {
		res.failed++
		res.checks = append(res.checks, "replay: "+err.Error())
	}
	q := float64(max(1, w.queries))
	res.addDist("core.search", durDist(times))
	res.add("core.settled_per_query_mean", float64(w.settled)/q, "count")
	res.add("core.settled_per_query_max", float64(w.maxSettled), "count")
	res.add("core.probes_per_query_mean", float64(w.probes)/q, "count")
	res.add("core.probes_per_query_max", float64(w.maxProbes), "count")
	res.add("core.scan_events_per_query", float64(w.scans)/q, "count")
	res.add("core.visited_per_query", float64(w.visited)/q, "count")
	res.add("core.candidates_per_query", float64(w.candidates)/q, "count")
	res.add("core.text_scored_per_query", float64(w.textScored)/q, "count")
	res.add("core.landmark_prunes_per_query", float64(w.landmarkPrunes)/q, "count")
	res.add("core.results_per_candidate", float64(w.results)/float64(max(1, w.candidates)), "ratio")
	res.add("core.early_terminated_share", float64(w.earlyTerminated)/q, "share")
	res.add("core.allocs_per_query", float64(mallocs)/q, "count")
	res.add("core.alloc_bytes_per_query", float64(allocBytes)/q, "bytes")
	res.checks = append(res.checks, "replay: "+w.String())
}

// String prints the exact counters, for the report and the tests.
func (w work) String() string {
	return fmt.Sprintf("%d queries: settled %d (max %d), probes %d (max %d), scans %d, visited %d, candidates %d, text-scored %d, landmark prunes %d, results %d, early-terminated %d",
		w.queries, w.settled, w.maxSettled, w.probes, w.maxProbes, w.scans, w.visited, w.candidates, w.textScored, w.landmarkPrunes, w.results, w.earlyTerminated)
}
