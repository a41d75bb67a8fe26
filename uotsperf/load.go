package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// writeClients is the number of closed-loop clients of a write phase:
// the one that carries the writes and one more reader, one per core of
// the two-core host the workloads were sized on.
const writeClients = 2

// poolSize is the number of distinct pre-rendered queries a stream
// cycles through; no run at the benchmark's length reaches its end.
const poolSize = 16384

// newClient returns the load generator's HTTP client. One transport
// carries every client and the writes, capped at conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// op is one completed request.
type op struct {
	idx    int           // index into the pre-rendered stream
	lat    time.Duration // client-observed latency (writes: from the due time)
	late   time.Duration // writes only: how late the generator sent it
	status int           // 0 on a transport error
	seen   int           // writes acked before this read (-1: unknown, another client's read)
	body   []byte
}

func (o op) ok() bool { return o.status == http.StatusOK }

// post sends one pre-rendered body and returns the status and reply.
func post(client *http.Client, url, rid string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, reply
}

// loadSpec describes one measured phase: closed-loop clients cycling
// through queries and, when writes are given, a fixed write schedule at
// rate. The writes ride the first client's connection: before each read
// that client sends every write that has come due, so the load never
// holds more connections than clients, and that client's reads see
// exactly the writes acknowledged before them. Without writes, every
// read sees the store as it booted.
type loadSpec struct {
	base    string
	client  *http.Client
	clients int
	queries []query
	writes  []write
	rate    float64 // writes per second
	dur     time.Duration
	tag     string // request-ID prefix, so phases never share IDs
}

type loadResult struct {
	reads, writes []op
	elapsed       time.Duration // first send to last completion
}

// runLoad drives one phase and returns every completed operation.
// Readers stop issuing at the deadline, and writes due after it are not
// sent. Each write is timed from its due time, so a stall delays every
// write queued behind it; late records how late each was sent.
func runLoad(s loadSpec) loadResult {
	start := time.Now()
	deadline := start.Add(s.dur)
	var interval time.Duration
	if s.rate > 0 {
		interval = time.Duration(float64(time.Second) / s.rate)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	var wg sync.WaitGroup
	for r := 0; r < s.clients; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reads, writes []op
			w, acked := 0, 0
			for time.Now().Before(deadline) {
				for ; r == 0 && w < len(s.writes); w++ {
					due := start.Add(time.Duration(w) * interval)
					if due.After(time.Now()) || !due.Before(deadline) {
						break
					}
					sent := time.Now()
					status, body := post(s.client, s.base+"/trajectories", fmt.Sprintf("%sw%d", s.tag, w), s.writes[w].body)
					writes = append(writes, op{idx: w, lat: time.Since(due), late: sent.Sub(due), status: status, body: body})
					if status == http.StatusOK {
						acked++
					}
				}
				seen := acked
				if r > 0 && len(s.writes) > 0 {
					seen = -1
				}
				seq := int(next.Add(1) - 1)
				q := s.queries[seq%len(s.queries)]
				t0 := time.Now()
				status, body := post(s.client, s.base+"/search", fmt.Sprintf("%sr%d", s.tag, seq), q.body)
				reads = append(reads, op{idx: seq, lat: time.Since(t0), status: status, body: body, seen: seen})
			}
			mu.Lock()
			res.reads = append(res.reads, reads...)
			res.writes = append(res.writes, writes...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.reads, func(i, j int) bool { return res.reads[i].idx < res.reads[j].idx })
	return res
}

// dist summarizes a sample, with the sample count beside it. p50 is the
// nearest-rank median. p99 is the mean of the samples from the 98.5th to
// the 99.5th percentile: with a few dozen samples past it, a single order
// statistic that far out moves with which handful of tail queries a run
// happened to draw, and the window average keeps the 99th percentile's
// meaning with a fraction of that noise.
type dist struct {
	n             int
	p50, p99, max float64 // milliseconds
}

func durDist(ds []time.Duration) dist {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return floatDist(ms)
}

func floatDist(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{n: len(s), p50: quantile(s, 0.50), p99: windowMean(s, 0.985, 0.995), max: s[len(s)-1]}
}

// windowMean is the mean of the nearest-rank quantiles from lo to hi of
// a sorted sample.
func windowMean(sorted []float64, lo, hi float64) float64 {
	a := int(math.Ceil(lo*float64(len(sorted)))) - 1
	b := int(math.Ceil(hi*float64(len(sorted)))) - 1
	a = max(a, 0)
	sum := 0.0
	for _, v := range sorted[a : b+1] {
		sum += v
	}
	return sum / float64(b-a+1)
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many samples lie above the p quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func latencies(ops []op) []time.Duration {
	out := make([]time.Duration, 0, len(ops))
	for _, o := range ops {
		if o.ok() {
			out = append(out, o.lat)
		}
	}
	return out
}

func countFailed(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.ok() {
			n++
		}
	}
	return n
}
