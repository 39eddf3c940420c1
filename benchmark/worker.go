package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"care/internal/shard"
)

// The benchmark binary is its own shard worker: `carebench serve
// --stats DIR` runs shard.Serve on stdin/stdout, counting the bytes
// that cross the wire, timing Serve and reading the allocation and peak
// RSS it cost, and writes them to DIR/worker-<pid>.json when Serve
// returns. The coordinator side reads and removes those files after
// each sharded campaign.

// workerStats is one worker process's accounting.
type workerStats struct {
	ReadBytes    int64   `json:"read_bytes"`
	WrittenBytes int64   `json:"written_bytes"`
	ServeMS      float64 `json:"serve_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	PeakRSSKB    uint64  `json:"peak_rss_kb"`
}

// countingReader and countingWriter count the bytes of a stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// serveMain is the worker entry point; it returns the process exit code.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	statsDir := fs.String("stats", "", "directory for the worker's accounting file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *statsDir == "" {
		fmt.Fprintln(os.Stderr, "carebench serve: --stats is required")
		return 2
	}
	in := &countingReader{r: os.Stdin}
	out := &countingWriter{w: os.Stdout}
	a0 := totalAlloc()
	t0 := time.Now()
	serveErr := shard.Serve(in, out)
	st := workerStats{
		ReadBytes:    in.n,
		WrittenBytes: out.n,
		ServeMS:      millis(time.Since(t0)),
		AllocBytes:   totalAlloc() - a0,
	}
	rss, err := peakRSSKB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "carebench serve:", err)
		return 1
	}
	st.PeakRSSKB = rss
	if err := writeWorkerStats(*statsDir, st); err != nil {
		fmt.Fprintln(os.Stderr, "carebench serve:", err)
		return 1
	}
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "carebench serve:", serveErr)
		return 1
	}
	return 0
}

func writeWorkerStats(dir string, st workerStats) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	// Write under a temporary name and rename, so the coordinator never
	// reads a partial file.
	final := filepath.Join(dir, fmt.Sprintf("worker-%d.json", os.Getpid()))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("write worker stats: %w", err)
	}
	return os.Rename(tmp, final)
}

// collectWorkerStats reads and removes every worker accounting file in
// dir.
func collectWorkerStats(dir string) ([]workerStats, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read worker stats: %w", err)
	}
	var out []workerStats
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "worker-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read worker stats: %w", err)
		}
		var st workerStats
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("decode %s: %w", path, err)
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// workerArgv is the worker command line for shard.RunCampaign.
func workerArgv(statsDir string) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	return []string{exe, "serve", "--stats", statsDir}, nil
}
