package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one spawned serving process. Its waiter goroutine is joined
// by kill, which every path calls.
type proc struct {
	name   string
	base   string // http://host:port
	cmd    *exec.Cmd
	done   chan struct{} // closed once Wait has returned
	listen *lineWatch    // stdout, watched for uotsshard's address line
}

// lineWatch is a stdout sink that signals the first line containing
// want.
type lineWatch struct {
	want  string
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan struct{}
	once  sync.Once
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if strings.Contains(w.buf.String(), w.want) {
		w.once.Do(func() { close(w.found) })
	}
	return len(p), nil
}

func spawn(name, logDir, bin string, args ...string) (*proc, error) {
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{
		name:   name,
		cmd:    exec.Command(bin, args...),
		done:   make(chan struct{}),
		listen: &lineWatch{want: "listening on", found: make(chan struct{})},
	}
	p.cmd.Stdout = p.listen
	p.cmd.Stderr = lf
	// A load generator that dies without its cleanup still takes its servers down.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// kill ends the process at once (a crash, for recovery runs) and waits.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-p.done
}

// maxRSSMB is the process's peak resident set (VmHWM) once it exited.
func (p *proc) maxRSSMB() float64 {
	<-p.done
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freeAddr returns a loopback address nothing listens on. Ports come
// from below the kernel's ephemeral range, so the outgoing connections
// of the load and of the servers (which take ephemeral ports) cannot
// grab one between this check and the server's own bind; successive
// calls walk the range, so no run hands out a port twice.
func freeAddr() (string, error) {
	lo, hi := 10000, ephemeralLow()
	if nextPort == 0 {
		nextPort = lo + os.Getpid()%(hi-lo)
	}
	for tries := 0; tries < hi-lo; tries++ {
		port := nextPort
		nextPort++
		if nextPort >= hi {
			nextPort = lo
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if ln, err := net.Listen("tcp", addr); err == nil {
			return addr, ln.Close()
		}
	}
	return "", errors.New("no free loopback port below the ephemeral range")
}

var nextPort int // the next candidate of freeAddr; 0 before the first call

// ephemeralLow is the first port of the kernel's ephemeral range.
func ephemeralLow() int {
	const fallback = 32768
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return fallback
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return fallback
	}
	n, err := strconv.Atoi(f[0])
	if err != nil || n <= 10000+1000 {
		return fallback
	}
	return n
}

// topology is one set of serving processes: the process the load
// targets (front) plus any shard servers behind it.
type topology struct {
	procs []*proc
	front *proc
}

func (t *topology) kill() {
	for _, p := range t.procs {
		p.kill()
	}
}

func (t *topology) rssMB() float64 {
	sum := 0.0
	for _, p := range t.procs {
		sum += p.maxRSSMB()
	}
	return sum
}

// topoSpec says how to start a workload's serving processes.
type topoSpec struct {
	binDir, logDir, data string
	kind                 string // "mono", "live" or "fleet"
	walDir               string
}

// start spawns the topology and waits until it serves: every shard
// server has printed its address and the front answers /healthz and
// /stats. It returns the time from the first spawn to that point.
func (s topoSpec) start(gen int) (*topology, time.Duration, error) {
	t := &topology{}
	begin := time.Now()
	ok := false
	defer func() {
		if !ok {
			t.kill()
		}
	}()
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	serve := []string{"-data", s.data, "-addr", addr, "-timeout", "30s", "-max-inflight", "64"}
	switch s.kind {
	case "mono":
		serve = append(serve, "-landmarks", "16")
	case "live":
		serve = append(serve, "-landmarks", "16", "-ingest", "-wal-dir", s.walDir, "-fsync", "always")
	case "fleet":
		var parts []string
		for i := 0; i < 2; i++ {
			saddr, err := freeAddr()
			if err != nil {
				return nil, 0, err
			}
			p, err := spawn(fmt.Sprintf("shard%d-%d", i, gen), s.logDir, filepath.Join(s.binDir, "uotsshard"),
				"-data", s.data, "-addr", saddr, "-shard", fmt.Sprint(i), "-shards", "2")
			if err != nil {
				return nil, 0, err
			}
			t.procs = append(t.procs, p)
			parts = append(parts, saddr)
		}
		serve = append(serve, "-remote-shards", strings.Join(parts, ";"))
	default:
		return nil, 0, fmt.Errorf("unknown topology %q", s.kind)
	}
	front, err := spawn(fmt.Sprintf("%s-%d", s.kind, gen), s.logDir, filepath.Join(s.binDir, "uotsserve"), serve...)
	if err != nil {
		return nil, 0, err
	}
	front.base = "http://" + addr
	t.procs = append(t.procs, front)
	t.front = front
	limit := time.After(120 * time.Second)
	for _, p := range t.procs[:len(t.procs)-1] {
		select {
		case <-p.listen.found:
		case <-p.done:
			return nil, 0, fmt.Errorf("%s exited during start-up (see %s.log)", p.name, p.name)
		case <-limit:
			return nil, 0, fmt.Errorf("%s not listening after 120s", p.name)
		}
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for !(get(probe, front.base+"/healthz") && get(probe, front.base+"/stats")) {
		if front.exited() {
			return nil, 0, fmt.Errorf("%s exited during start-up (see %s.log)", front.name, front.name)
		}
		select {
		case <-limit:
			return nil, 0, errors.New("front server not healthy after 120s")
		case <-time.After(time.Millisecond):
		}
	}
	ok = true
	return t, time.Since(begin), nil
}

func get(client *http.Client, url string) bool {
	status, _ := getBody(client, url)
	return status == http.StatusOK
}
