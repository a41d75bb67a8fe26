package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The write phase of an ingest workload: after the timed reads, a
// separate uotsserve -ingest -fsync always takes writesPerSec paced
// writes of 1–3 trajectories for writePhase while two closed-loop
// clients read single-source queries, the first client carrying the
// writes. Its figures are printed, not gated; its WAL is what the
// recovery restarts replay.
const (
	writesPerSec = 100
	writePhase   = 5 * time.Second
)

// streams renders every request body of a run before timing starts.
type streams struct {
	warm, queries []query // the timed read phase and its warm-up
	writeReads    []query // reads of the write phase
	writes        []write
}

func renderStreams(g *gen, wl workload) streams {
	s := streams{
		warm:    g.queries("warm", wl.shape, 4096),
		queries: g.queries("queries", wl.shape, poolSize),
	}
	if wl.ingest {
		s.writeReads = g.queries("write-reads", lightShape, poolSize)
		s.writes = g.writes("writes", int(writePhase.Seconds()*writesPerSec)+1)
	}
	return s
}

// warm runs the untimed warm-up phase against base, with the timed
// phase's clients.
func warm(client *http.Client, clients int, base string, st streams) error {
	lr := runLoad(loadSpec{base: base, client: client, clients: clients, queries: st.warm, dur: warmUp, tag: "warm"})
	if f := countFailed(lr.reads); f > 0 {
		return fmt.Errorf("%d of %d warm-up searches failed", f, len(lr.reads))
	}
	return nil
}

// runEndToEnd measures the end-to-end metrics against the shipped
// binaries: set-up (median of setupReps cold starts), the timed read
// phase, answer checks, peak RSS, the write phase of ingest workloads,
// and recovery (median of recoveryReps SIGKILL restarts, replaying the
// write phase's WAL on ingest workloads).
func runEndToEnd(e *env, wl workload, dur time.Duration) (*result, error) {
	_, db, _, err := loadCorpus(e.data)
	if err != nil {
		return nil, err
	}
	st := renderStreams(newGen(db, e.seed), wl)
	chk, err := newChecker(db)
	if err != nil {
		return nil, err
	}
	spec := topoSpec{binDir: e.binDir, logDir: e.runDir, data: e.data, kind: wl.topo}
	var live []*topology
	defer func() {
		for _, t := range live {
			t.kill()
		}
	}()

	var setups []float64
	var topo *topology
	for i := 0; i < setupReps; i++ {
		runtime.GC() // keep the load generator's own collector out of the timed start
		t, took, err := spec.start(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		live = append(live, t)
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			t.kill()
		} else {
			topo = t
		}
	}

	res := &result{}
	client := newClient(wl.clients)
	if err := warm(client, wl.clients, topo.front.base, st); err != nil {
		return nil, err
	}
	runtime.GC()
	lr := runLoad(loadSpec{base: topo.front.base, client: client, clients: wl.clients, queries: st.queries, dur: dur})
	client.CloseIdleConnections()
	res.attempted = len(lr.reads)
	res.failed = countFailed(lr.reads)
	checkReads(res, chk, wl, st.queries, lr.reads)
	topo.kill()
	rss := topo.rssMB()

	restart := spec
	var ids []int64
	var before [][]byte
	if wl.ingest {
		restart = topoSpec{binDir: e.binDir, logDir: e.runDir, data: e.data, kind: "live",
			walDir: filepath.Join(e.runDir, "wal")}
		if ids, before, err = writeStage(res, chk, restart, st, &live); err != nil {
			return nil, err
		}
	}

	var recoveries []float64
	identical := 0
	for i := 0; i < recoveryReps; i++ {
		runtime.GC()
		t, took, err := restart.start(setupReps + i)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		live = append(live, t)
		recoveries = append(recoveries, took.Seconds())
		if wl.ingest && i == 0 {
			c := newClient(1)
			for j, id := range ids {
				status, body := getBody(c, fmt.Sprintf("%s/trajectory/%d", t.front.base, id))
				res.attempted++
				if status == 200 && bytes.Equal(body, before[j]) {
					identical++
				} else {
					res.failed++
				}
			}
			c.CloseIdleConnections()
		}
		t.kill()
	}
	if wl.ingest {
		res.checks = append(res.checks, fmt.Sprintf("after a crash restart: %d of %d acked trajectories read back byte-identical",
			identical, len(ids)))
	}

	reads := durDist(latencies(lr.reads))
	res.addCounted("setup_s", median(setups), "s", len(setups))
	res.addCounted("search_qps", float64(reads.n)/lr.elapsed.Seconds(), "1/s", reads.n)
	res.addDist("search", reads)
	res.addCounted("recovery_s", median(recoveries), "s", len(recoveries))
	res.add("rss_mb", rss, "MB")
	return res, nil
}

// writeStage runs the write phase on a fresh live server, checks its
// reads and reads back every acknowledged trajectory. It returns their
// IDs and bodies, for the byte-identical check after a crash restart.
func writeStage(res *result, chk *checker, spec topoSpec, st streams, live *[]*topology) ([]int64, [][]byte, error) {
	if err := os.RemoveAll(spec.walDir); err != nil {
		return nil, nil, err
	}
	t, _, err := spec.start(0)
	if err != nil {
		return nil, nil, fmt.Errorf("write phase: %w", err)
	}
	*live = append(*live, t)
	client := newClient(writeClients)
	defer client.CloseIdleConnections()
	lr := runLoad(loadSpec{base: t.front.base, client: client, clients: writeClients,
		queries: st.writeReads, writes: st.writes, rate: writesPerSec, dur: writePhase, tag: "w"})
	res.attempted += len(lr.reads) + len(lr.writes)
	res.failed += countFailed(lr.reads) + countFailed(lr.writes)
	checkWriteReads(res, chk, st.writeReads, lr, ackedWrites(st.writes, lr.writes), 0)

	ids, sent, bad := ackedIDs(st.writes, lr.writes)
	res.failed += bad
	before, bad, first := readBack(client, t.front.base, ids, sent)
	res.attempted += len(ids)
	res.failed += bad
	res.checks = append(res.checks, fmt.Sprintf("acked writes read back: %d trajectories, %d mismatched %s", len(ids), bad, first))
	t.kill()
	addWriterFigures(res, lr)
	return ids, before, nil
}

// checkReads runs the workload's answer check over the timed reads,
// which all saw the boot corpus.
func checkReads(res *result, chk *checker, wl workload, queries []query, reads []op) {
	var checked, bad int
	var what string
	switch wl.topo {
	case "mono":
		checked, bad = chk.againstExhaustive(queries, reads, nil, 0, 24)
		what = "sampled answers vs ExhaustiveSearchCtx"
	case "fleet":
		checked, bad = chk.againstMonolith(queries, reads)
		what = "fleet answers vs monolithic engine"
	}
	addCheck(res, chk, what, checked, bad)
}

// checkWriteReads checks a sample of the write phase's reads of the
// writing client against the exhaustive oracle on a replica of the
// store each read saw: the boot corpus plus applied[:base+seen].
func checkWriteReads(res *result, chk *checker, queries []query, lr loadResult, applied [][]writeTraj, base int) {
	checked, bad := chk.againstExhaustive(queries, lr.reads, applied, base, 12)
	addCheck(res, chk, "write-phase answers vs ExhaustiveSearchCtx on a replica of the store they read", checked, bad)
}

func addCheck(res *result, chk *checker, what string, checked, bad int) {
	res.failed += bad
	res.checks = append(res.checks, fmt.Sprintf("%s: %d checked, %d mismatched", what, checked, bad))
	for _, n := range chk.notes {
		res.checks = append(res.checks, "  "+n)
	}
	chk.notes = nil
}

// addWriterFigures reports the write phase: durable-ack latency from
// each write's due time, how late the generator ran, and the reads
// that ran alongside. These are printed for the record, not gated.
func addWriterFigures(res *result, lr loadResult) {
	lat := durDist(latencies(lr.writes))
	reads := durDist(latencies(lr.reads))
	var late []float64
	for _, o := range lr.writes {
		late = append(late, ms(o.late))
	}
	l := floatDist(late)
	res.checks = append(res.checks,
		fmt.Sprintf("write phase (%d writes/s for %v, not gated): ingest_p50_ms %.4f, ingest_p99_ms %.4f (n=%d, %d beyond p99); load.writer_late_ms p50 %.4f p99 %.4f max %.4f (n=%d); reads %.1f/s, p50 %.4f ms, p99 %.4f ms (n=%d)",
			writesPerSec, writePhase, lat.p50, lat.p99, lat.n, beyond(lat.n, 0.99), l.p50, l.p99, l.max, l.n,
			float64(reads.n)/lr.elapsed.Seconds(), reads.p50, reads.p99, reads.n))
}
