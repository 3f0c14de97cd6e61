package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsTraced runs every workload briefly with tracing on and
// checks that every per-layer metric BENCHMARK.json names is reported and
// finite, that the run's checks passed, and that the trace is well formed:
// children inside their parents and no negative self time.
func TestWorkloadsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys and drives every workload")
	}
	var def struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"session-get", "connect-get", "cluster-churn"} {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			res, detail, err := run(workloads[name], 1, 2*time.Second, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", res.Attempted, res.Failed, detail["problems"])
			}
			for _, m := range def.PerLayer {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("metric %s = %v", m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(def.PerLayer) {
				t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(def.PerLayer))
			}
			var spans []span
			data, err := os.ReadFile(resultPath(out, name, 1, 1, "spans"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			nested := 0
			for _, s := range spans {
				if s.Parent != 0 && strings.HasPrefix(s.Name, "credstore.") {
					nested++
				}
			}
			if nested == 0 {
				t.Error("no server-side store span was attributed to an operation")
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op.get", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 40}, // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 100},
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 60, 2: 10, 3: 20, 4: 10, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of #%d = %v, want %v", id, self[id], want)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans = append(spans, span{Name: "late", ID: 6, Parent: 1, Start: 95, End: 120})
	if err := checkSpans(spans); err == nil {
		t.Error("a child ending after its parent passed the check")
	}
}
