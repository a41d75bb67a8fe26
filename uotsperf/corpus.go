package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"uots"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// The medium BRN corpus: 7,056 vertices and 30k trajectories of ~50
// samples, the baseline shape of the repository's roadmap. The corpus
// is one fixed dataset, generated from its own seed; --seed picks the
// request streams run against it. A corpus per seed would move the road
// network and its hot spots from run to run, and with them every figure.
var corpusShape = struct {
	City  string
	Scale float64
	Trajs int
	Mean  int
	Seed  uint64
}{"brn", 0.5, 30000, 50, 1}

// corpusPrefix generates the corpus with the shipped uotsdgen and
// returns its path prefix. The generated files are kept for later runs
// under a name that carries the hash of the uotsdgen binary, so a
// rebuilt generator that writes other bytes never reuses them.
func corpusPrefix(binDir, dataDir string) (string, error) {
	seed := corpusShape.Seed
	sum, err := fileHash(filepath.Join(binDir, "uotsdgen"))
	if err != nil {
		return "", err
	}
	prefix := filepath.Join(dataDir, fmt.Sprintf("brn-%g-%d-%d-s%d-%s",
		corpusShape.Scale, corpusShape.Trajs, corpusShape.Mean, seed, sum))
	if fileExists(prefix+".graph") && fileExists(prefix+".trajs") {
		return prefix, nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", err
	}
	tmp := prefix + ".tmp"
	cmd := exec.Command(filepath.Join(binDir, "uotsdgen"),
		"-city", corpusShape.City,
		"-scale", strconv.FormatFloat(corpusShape.Scale, 'g', -1, 64),
		"-trajs", strconv.Itoa(corpusShape.Trajs),
		"-mean", strconv.Itoa(corpusShape.Mean),
		"-seed", strconv.FormatUint(seed, 10),
		"-out", tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("uotsdgen: %v: %s", err, out)
	}
	for _, ext := range []string{".graph", ".trajs"} {
		if err := os.Rename(tmp+ext, prefix+ext); err != nil {
			return "", err
		}
	}
	return prefix, nil
}

// loadCorpus reads a generated corpus the way the serving binaries do.
func loadCorpus(prefix string) (*roadnet.Graph, *trajdb.Store, time.Duration, error) {
	start := time.Now()
	gf, err := os.Open(prefix + ".graph")
	if err != nil {
		return nil, nil, 0, err
	}
	g, err := uots.ReadGraph(gf)
	gf.Close()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reading graph: %w", err)
	}
	tf, err := os.Open(prefix + ".trajs")
	if err != nil {
		return nil, nil, 0, err
	}
	db, err := uots.ReadStore(tf, g)
	tf.Close()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reading trajectories: %w", err)
	}
	return g, db, time.Since(start), nil
}

// fileHash is the first 16 hex digits of the file's SHA-256.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}
