package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// heapSampler tracks the peak of live heap object bytes while it runs.
type heapSampler struct {
	quit chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	h.done.Wait()
	return float64(h.peak)
}

// runtimeCounters are the runtime/metrics the per-layer runtime metrics
// are deltas of. The GC CPU estimate advances at each GC cycle.
type runtimeCounters struct{ allocs, allocBytes, gcCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
	}
}

// fingerprint identifies the host and the code a result came from. commit
// is the git commit run.sh found, or "unknown" outside a git checkout;
// source identifies the code either way.
func fingerprint(root, commit string, seed uint64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceHash(root),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the checkout's Go sources and module files,
// skipping hidden directories. It identifies the code also where the
// benchmark runs from an export of the tree that has no git metadata.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultPath(out, workload string, seed uint64, trace int, kind string) string {
	return filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.%s.json", workload, seed, trace, kind))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func writeDetail(out, workload string, seed uint64, trace int, detail map[string]any) error {
	return writeJSON(resultPath(out, workload, seed, trace, "detail"), detail)
}

func writeSpans(out, workload string, seed uint64, spans []span) error {
	return writeJSON(resultPath(out, workload, seed, 1, "spans"), spans)
}
