package main

// The traced run composes each workload's serving configuration
// in-process from the packages' public constructors and records spans
// and counts around their public seams, from this package's code only:
//
//	server.Handler          handler span, status, response bytes
//	server.Config.Searcher  backend span and SearchStats, keyed by
//	                        server.RequestIDFromContext
//	rpc.ShardServer.Handler partition span, keyed by the request ID the
//	                        RPC transport wrapper stamps on the hop
//	ingest.Service.Engine   and trajdb.DynamicStore.SnapshotGen, called
//	                        (and timed) just before each live read
//	index.NewTrajBounds, core.NewEngine, corpus load: set-up spans
//	core.Engine.SearchCtx   single-goroutine replay of the stream's head:
//	                        exact work counters, time and allocations
//
// On fleet-light the Searcher seam is the router's shard.RemoteExecutor.
// On search-heavy the server searches its fixed engine, and in the
// write phase resolves each read's engine from the ingest service, so
// the engine time comes from the reply's own stats.elapsedMs instead.
//
// The read phase, and the write phase of ingest workloads, each run as
// two halves over the same composition: untraced (wrappers pass
// through) and traced. Their client-observed figures side by side are
// the tracing overhead.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uots/internal/core"
	"uots/internal/index"
	"uots/internal/ingest"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/rpc"
	"uots/internal/server"
	"uots/internal/shard"
	"uots/internal/trajdb"
)

const ridHeader = "X-Request-ID"

// span is what the wrappers record about one request.
type span struct {
	handler   time.Duration
	status    int
	respBytes int
	backend   time.Duration // Config.Searcher span (0: no backend seam)
	stats     core.SearchStats
	parts     []time.Duration // rpc.ShardServer.Handler spans
}

// spanLog collects spans by request ID while on is set.
type spanLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	reqs map[string]*span

	rpcCalls, rpcReqBytes, rpcRespBytes atomic.Int64

	// Live reads: work found pending at each pre-read resolve.
	snapshots, engines []time.Duration
	reads              int
}

func newSpanLog() *spanLog { return &spanLog{reqs: map[string]*span{}} }

func (l *spanLog) update(id string, f func(*span)) {
	if id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.reqs[id]
	if s == nil {
		s = &span{}
		l.reqs[id] = s
	}
	f(s)
}

// countingWriter records a handler's status and body size.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// handlerSpan wraps server.Handler. before runs ahead of each /search
// (the live-read resolve on search-heavy).
func handlerSpan(l *spanLog, next http.Handler, before func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		if before != nil && r.URL.Path == "/search" {
			before()
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		l.update(r.Header.Get(ridHeader), func(s *span) {
			s.handler, s.status, s.respBytes = d, cw.status, cw.bytes
		})
	})
}

// tracedBackend wraps the server.Config.Searcher seam.
type tracedBackend struct {
	server.SearchBackend
	log *spanLog
}

func (b tracedBackend) SearchCtx(ctx context.Context, q core.Query) ([]core.Result, core.SearchStats, error) {
	if !b.log.on.Load() {
		return b.SearchBackend.SearchCtx(ctx, q)
	}
	t0 := time.Now()
	res, st, err := b.SearchBackend.SearchCtx(ctx, q)
	d := time.Since(t0)
	b.log.update(server.RequestIDFromContext(ctx), func(s *span) { s.backend, s.stats = d, st })
	return res, st, err
}

// partitionSpan wraps one rpc.ShardServer.Handler.
func partitionSpan(l *spanLog, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() || r.URL.Path != rpc.PathSearch {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		l.update(r.Header.Get(ridHeader), func(s *span) { s.parts = append(s.parts, d) })
	})
}

// idTransport is the router's RPC transport: it stamps the serving
// request's ID on each hop and counts the bytes each way.
type idTransport struct {
	base http.RoundTripper
	log  *spanLog
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.log.on.Load() || r.URL.Path != rpc.PathSearch {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(ridHeader, server.RequestIDFromContext(r.Context()))
	t.log.rpcCalls.Add(1)
	if r.ContentLength > 0 {
		t.log.rpcReqBytes.Add(r.ContentLength)
	} else if r.Body != nil {
		r.Body = countingBody{r.Body, &t.log.rpcReqBytes}
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.log.rpcRespBytes}
	}
	return resp, err
}

// served is one in-process HTTP listener.
type served struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *served) close() {
	_ = s.srv.Close()
	<-s.done
}

// composition is one workload's serving configuration, in-process.
type composition struct {
	front   string
	servers []*served
	closers []func()

	reg    *obs.Registry
	svc    *ingest.Service
	dyn    *trajdb.DynamicStore
	icfg   ingest.Config
	before ingest.Stats // write-path counters when the traced phase began
}

func (c *composition) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	for _, s := range c.servers {
		s.close()
	}
}

// compose builds a serving configuration ("mono", "fleet" or "live")
// the way uotsserve and uotsshard do, with the seam wrappers in place.
// mono is the monolithic engine; "live" builds one per generation.
func compose(kind string, db *trajdb.Store, engOpts core.Options, mono *core.Engine, walPath string, l *spanLog) (_ *composition, err error) {
	c := &composition{reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	cfg := server.Config{Timeout: 30 * time.Second, MaxInFlight: 64, Metrics: c.reg}
	engine := mono
	var before func()
	switch kind {
	case "fleet":
		part, _ := shard.PartitionerByName("hash")
		var groups []*rpc.Group
		m := rpc.NewMetrics(c.reg)
		hc := &http.Client{Transport: idTransport{http.DefaultTransport.(*http.Transport).Clone(), l}}
		for i := 0; i < 2; i++ {
			eng, globals, err := shard.BuildShardEngine(db, core.Options{}, part, 2, i)
			if err != nil {
				return nil, err
			}
			ss, err := rpc.NewShardServer(eng, globals, i, 2)
			if err != nil {
				return nil, err
			}
			s, err := serve(partitionSpan(l, ss.Handler()))
			if err != nil {
				return nil, err
			}
			c.servers = append(c.servers, s)
			g, err := rpc.NewGroup([]string{s.base}, rpc.GroupConfig{
				CallTimeout: 2 * time.Second, MaxAttempts: 3, ProbeInterval: 5 * time.Second, HTTPClient: hc,
			}, m)
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
		remote, err := shard.NewRemoteExecutor(groups, shard.RemoteConfig{Global: mono, Partial: shard.PartialFail, Metrics: c.reg})
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, remote.Close)
		cfg.Searcher = tracedBackend{remote, l}
	case "live":
		c.dyn = trajdb.NewDynamicFromStore(db)
		c.icfg = ingest.Config{WALPath: walPath, Fsync: ingest.FsyncAlways, Engine: engOpts,
			Metrics: obs.NewIngestMetrics(c.reg), IndexMetrics: obs.NewIndexMetrics(c.reg)}
		svc, err := ingest.Open(c.dyn, c.icfg)
		if err != nil {
			return nil, err
		}
		c.svc = svc
		c.closers = append(c.closers, func() { _ = svc.Close() })
		cfg.Live = svc
		engine = nil
		var lastGen uint64
		before = func() {
			r0, e0 := c.dyn.SnapshotStats()
			t0 := time.Now()
			c.dyn.SnapshotGen()
			snap := time.Since(t0)
			r1, e1 := c.dyn.SnapshotStats()
			t1 := time.Now()
			_, gen, _ := svc.Engine()
			eng := time.Since(t1)
			l.mu.Lock()
			defer l.mu.Unlock()
			l.reads++
			if r1+e1 != r0+e0 {
				l.snapshots = append(l.snapshots, snap)
			}
			if gen != lastGen {
				l.engines = append(l.engines, eng)
				lastGen = gen
			}
		}
	}
	srv := server.NewWithConfig(engine, db.Vocab(), nil, cfg)
	s, err := serve(handlerSpan(l, srv.Handler(), before))
	if err != nil {
		return nil, err
	}
	c.servers = append(c.servers, s)
	c.front = s.base
	return c, nil
}

// runTraced is the --trace 1 run: the read phase, then on ingest
// workloads the write phase, each as an untraced and a traced half.
func runTraced(e *env, wl workload, dur time.Duration) (*result, error) {
	res := &result{}
	g, db, load, err := loadCorpus(e.data)
	if err != nil {
		return nil, err
	}
	st := renderStreams(newGen(db, e.seed), wl)
	res.add("trajdb.load_ms", ms(load), "ms")

	engOpts := core.Options{}
	var indexBuild time.Duration
	if wl.topo == "mono" {
		t0 := time.Now()
		engOpts.Index = index.NewTrajBounds(db, roadnet.NewLandmarks(g, 16, 0))
		indexBuild = time.Since(t0)
	}
	res.add("index.build_ms", ms(indexBuild), "ms")
	t0 := time.Now()
	mono, err := core.NewEngine(db, engOpts)
	if err != nil {
		return nil, err
	}
	res.add("core.engine_build_ms", ms(time.Since(t0)), "ms")
	chk, err := newChecker(db)
	if err != nil {
		return nil, err
	}

	l := newSpanLog()
	c, err := compose(wl.topo, db, engOpts, mono, "", l)
	if err != nil {
		return nil, err
	}
	defer c.close()
	client := newClient(wl.clients)
	defer client.CloseIdleConnections()
	if err := warm(client, wl.clients, c.front, st); err != nil {
		return nil, err
	}
	plain, traced := halves(client, wl.clients, c, l, st.queries, [2][]write{}, 0, dur)
	res.attempted = len(plain.reads) + len(traced.reads)
	res.failed = countFailed(plain.reads) + countFailed(traced.reads)
	checkReads(res, chk, wl, st.queries, traced.reads)
	overhead(res, "search", plain, traced)
	pd, td := durDist(latencies(plain.reads)), durDist(latencies(traced.reads))
	res.add("trace.overhead_p50_share", td.p50/pd.p50-1, "share")
	serverLayer(res, l, traced)
	shardLayer(res, l, c, wl)
	c.close()
	c.closers, c.servers = nil, nil

	if wl.ingest {
		if err := tracedWrites(e, res, chk, st, db, engOpts); err != nil {
			return nil, err
		}
	} else {
		overhead(res, "ingest", loadResult{}, loadResult{})
		ingestLayer(res, newSpanLog(), nil, loadResult{}, nil, db)
	}
	replayLayer(res, mono, db.Vocab(), st.queries, wl)
	return res, nil
}

// tracedWrites is the write phase, in-process: a live composition
// whose WAL starts empty, driven as an untraced and a traced half.
func tracedWrites(e *env, res *result, chk *checker, st streams, db *trajdb.Store, engOpts core.Options) error {
	walPath := filepath.Join(e.runDir, "wal", "ingest.wal")
	if err := os.MkdirAll(filepath.Dir(walPath), 0o755); err != nil {
		return err
	}
	l := newSpanLog()
	c, err := compose("live", db, engOpts, nil, walPath, l)
	if err != nil {
		return err
	}
	defer c.close()
	client := newClient(writeClients)
	defer client.CloseIdleConnections()
	writesA, writesB := st.writes[:len(st.writes)/2], st.writes[len(st.writes)/2:]
	plain, traced := halves(client, writeClients, c, l, st.writeReads, [2][]write{writesA, writesB}, writesPerSec, writePhase)
	for _, lr := range []loadResult{plain, traced} {
		res.attempted += len(lr.reads) + len(lr.writes)
		res.failed += countFailed(lr.reads) + countFailed(lr.writes)
	}
	// The traced half's reads saw the untraced half's writes too.
	ackedA := ackedWrites(writesA, plain.writes)
	checkWriteReads(res, chk, st.writeReads, traced, append(ackedA, ackedWrites(writesB, traced.writes)...), len(ackedA))
	overhead(res, "ingest", plain, traced)
	ingestLayer(res, l, c, traced, writesB, db)
	return nil
}

// halves drives dur of load on the composition: the first half with
// the wrappers passing through, the second traced. Writes, when given,
// are split between the halves.
func halves(client *http.Client, clients int, c *composition, l *spanLog, queries []query, writes [2][]write, rate float64, dur time.Duration) (plain, traced loadResult) {
	plain = runLoad(loadSpec{base: c.front, client: client, clients: clients,
		queries: queries, writes: writes[0], rate: rate, dur: dur / 2, tag: "a"})
	if c.svc != nil {
		c.before = c.svc.Stats()
	}
	l.on.Store(true)
	traced = runLoad(loadSpec{base: c.front, client: client, clients: clients,
		queries: queries, writes: writes[1], rate: rate, dur: dur / 2, tag: "b"})
	l.on.Store(false)
	return plain, traced
}

// overhead reports the untraced and traced halves' client-observed
// figures side by side: searches as inproc.search_* and traced.search_*
// (with their rate), writes as inproc.ingest_* and traced.ingest_*.
func overhead(res *result, kind string, plain, traced loadResult) {
	for _, ph := range []struct {
		name string
		lr   loadResult
	}{{"inproc", plain}, {"traced", traced}} {
		if kind == "search" {
			d := durDist(latencies(ph.lr.reads))
			res.add(ph.name+".search_qps", float64(d.n)/ph.lr.elapsed.Seconds(), "1/s")
			res.addDist(ph.name+".search", d)
		} else {
			res.addDist(ph.name+".ingest", durDist(latencies(ph.lr.writes)))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tracedSearches pairs each traced /search with its spans.
func tracedSearches(l *spanLog, lr loadResult) (client []time.Duration, spans []*span, elapsed []float64) {
	for _, o := range lr.reads {
		s := l.reqs[fmt.Sprintf("br%d", o.idx)]
		if s == nil || !o.ok() {
			continue
		}
		var reply struct {
			Stats struct {
				ElapsedMs float64 `json:"elapsedMs"`
			} `json:"stats"`
		}
		if json.Unmarshal(o.body, &reply) != nil {
			continue
		}
		client = append(client, o.lat)
		spans = append(spans, s)
		elapsed = append(elapsed, reply.Stats.ElapsedMs)
	}
	return client, spans, elapsed
}

// serverLayer: self time is the handler span minus the backend span
// (where the Searcher seam exists) or minus the engine time the reply
// reports (live reads, whose engine is resolved inside the handler).
func serverLayer(res *result, l *spanLog, lr loadResult) {
	client, spans, elapsed := tracedSearches(l, lr)
	var self, wire []float64
	bytes, non200 := 0, 0
	for i, s := range spans {
		backend := ms(s.backend)
		if s.backend == 0 {
			backend = elapsed[i]
		}
		self = append(self, ms(s.handler)-backend)
		wire = append(wire, ms(client[i]-s.handler))
		bytes += s.respBytes
	}
	for _, s := range l.reqs {
		if s.status != 0 && s.status != http.StatusOK {
			non200++
		}
	}
	res.addDist("server.self", floatDist(self))
	res.addDist("server.wire", floatDist(wire))
	res.add("server.resp_bytes", float64(bytes)/float64(max(1, len(spans))), "bytes")
	res.add("server.non200", float64(non200), "count")
}

// shardLayer: the Searcher span is the scatter/merge on fleet-light;
// partition spans come from the shard servers' handlers.
func shardLayer(res *result, l *spanLog, c *composition, wl workload) {
	var search, self, skew, parts []float64
	prunes, queries := 0, 0
	if wl.topo == "fleet" {
		for _, s := range l.reqs {
			if s.backend == 0 || len(s.parts) == 0 {
				continue
			}
			queries++
			search = append(search, ms(s.backend))
			slowest, sum := 0.0, 0.0
			for _, p := range s.parts {
				parts = append(parts, ms(p))
				slowest = max(slowest, ms(p))
				sum += ms(p)
			}
			self = append(self, ms(s.backend)-slowest)
			skew = append(skew, slowest/(sum/float64(len(s.parts))))
			prunes += s.stats.SharedBoundPrunes
		}
	}
	res.addDist("shard.search", floatDist(search))
	res.addDist("shard.self", floatDist(self))
	res.add("shard.partition_skew", mean(skew), "ratio")
	res.add("shard.shared_bound_prunes_per_query", float64(prunes)/float64(max(1, queries)), "count")
	res.addDist("rpc.partition", floatDist(parts))
	calls := float64(max(1, l.rpcCalls.Load()))
	res.add("rpc.req_bytes", float64(l.rpcReqBytes.Load())/calls, "bytes")
	res.add("rpc.resp_bytes", float64(l.rpcRespBytes.Load())/calls, "bytes")
	res.add("rpc.attempts_per_query", float64(l.rpcCalls.Load())/float64(max(1, queries)), "count")
	res.add("rpc.retries", float64(c.reg.Counter("uots_rpc_retries_total", "").Value()), "count")
}

// ingestLayer: write-path figures from the traced half plus the live
// composition's service counters, and a timed WAL replay into a fresh
// store. Every acknowledged trajectory must replay identical. With no
// live composition (c nil) every figure reads 0.
func ingestLayer(res *result, l *spanLog, c *composition, lr loadResult, writes []write, db *trajdb.Store) {
	var acks, late []float64
	userBytes := 0
	for _, o := range lr.writes {
		if s := l.reqs[fmt.Sprintf("bw%d", o.idx)]; s != nil && o.ok() {
			acks = append(acks, ms(s.handler))
			userBytes += len(writes[o.idx].body)
		}
		late = append(late, ms(o.late))
	}
	var st ingest.Stats
	var replay time.Duration
	if c != nil {
		st = statsDelta(c.svc.Stats(), c.before)
		ids, _, bad := ackedIDs(writes, lr.writes)
		res.failed += bad
		if err := c.svc.Close(); err != nil {
			res.failed++
			res.checks = append(res.checks, "ingest close: "+err.Error())
		}
		cfg := c.icfg
		cfg.Metrics, cfg.IndexMetrics = nil, nil
		dyn := trajdb.NewDynamicFromStore(db)
		t0 := time.Now()
		svc, err := ingest.Open(dyn, cfg)
		replay = time.Since(t0)
		if err != nil {
			res.failed++
			res.checks = append(res.checks, "WAL replay: "+err.Error())
		} else {
			bad := 0
			for _, id := range ids {
				a, okA := c.dyn.Get(trajdb.ExternalID(id))
				b, okB := dyn.Get(trajdb.ExternalID(id))
				if !okA || !okB || !sameTraj(a, b) {
					bad++
				}
			}
			res.attempted += len(ids)
			res.failed += bad
			res.checks = append(res.checks, fmt.Sprintf("WAL replay: %d acked trajectories, %d differ", len(ids), bad))
			_ = svc.Close()
		}
	}
	res.addDist("ingest.ack", floatDist(acks))
	res.add("ingest.trajs_per_commit", float64(st.Committed)/float64(max(1, st.Batches)), "count")
	res.add("ingest.fsyncs_per_1k_trajs", 1000*float64(st.WALFsyncs)/float64(max(1, st.Committed)), "count")
	res.add("ingest.wal_bytes_per_user_byte", float64(st.WALBytes)/float64(max(1, userBytes)), "ratio")
	res.addDist("ingest.engine", floatDist(msAll(l.engines)))
	res.add("ingest.engine_builds_per_read", float64(len(l.engines))/float64(max(1, l.reads)), "ratio")
	res.add("ingest.replay_ms", ms(replay), "ms")
	res.add("ingest.backlog_rejects", float64(st.RejectedBacklog), "count")
	res.addDist("trajdb.snapshot", floatDist(msAll(l.snapshots)))
	res.add("trajdb.snapshot_extensions_per_1k_writes", 1000*float64(st.Extensions)/float64(max(1, len(lr.writes))), "count")
	res.add("trajdb.snapshot_rebuilds", float64(st.Rebuilds), "count")
	lt := floatDist(late)
	res.metrics = append(res.metrics, metric{name: "load.writer_late_ms", value: lt.p99, unit: "ms", n: lt.n, p: 0.99})
}

// statsDelta is the write-path work done between two Stats readings.
func statsDelta(now, then ingest.Stats) ingest.Stats {
	now.Committed -= then.Committed
	now.Batches -= then.Batches
	now.WALBytes -= then.WALBytes
	now.WALFsyncs -= then.WALFsyncs
	now.RejectedBacklog -= then.RejectedBacklog
	now.Rebuilds -= then.Rebuilds
	now.Extensions -= then.Extensions
	return now
}

func sameTraj(a, b *trajdb.Trajectory) bool {
	if len(a.Samples) != len(b.Samples) || len(a.Keywords) != len(b.Keywords) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	for i := range a.Keywords {
		if a.Keywords[i] != b.Keywords[i] {
			return false
		}
	}
	return true
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
