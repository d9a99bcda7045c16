package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filealloc/internal/catalog"
	"filealloc/internal/sweep"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every check passed.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "7", "-seconds", "0.01", "-trace", trace, "-scale", "tiny"}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
					if _, err := os.Stat(filepath.Join(traceDir, w.Name+"-seed7.json")); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestTamperedOutputsFail checks that each output check rejects a
// corrupted output.
func TestTamperedOutputsFail(t *testing.T) {
	ctx := sweep.WithWorkers(context.Background(), 1)
	cfg := catalogConfig(scale{catalogObjects: 40}, 3)
	cat, err := catalog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.SolveCold(ctx); err != nil {
		t.Fatal(err)
	}
	snap := cat.Snapshot()

	b := newBench(3, 0, scales["tiny"], false)
	checkAllocations(b, snap)
	if b.failed != 0 {
		t.Fatalf("untampered catalog failed %d checks", b.failed)
	}
	tampered := snap
	tampered.X = append([]float64(nil), snap.X...)
	tampered.X[5*snap.Nodes+1] += 1e-9 // object 5 no longer sums to 1
	tampered.X[9*snap.Nodes] = -1e-3   // object 9 goes negative
	checkAllocations(b, tampered)
	if b.failed != 2 {
		t.Errorf("tampered catalog: %d failed objects, want 2", b.failed)
	}

	b = newBench(3, 0, scales["tiny"], false)
	times, _, err := singleObjectSolves(context.Background(), b, cfg, tampered)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != snap.Objects || b.failed != 2 {
		t.Errorf("single-object solves against the tampered plan: %d failed, want 2", b.failed)
	}

	in, err := newGossipInput(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	b = newBench(3, 0, scales["tiny"], false)
	p, err := runGossipPass(context.Background(), b, in, nil)
	if err != nil || b.failed != 0 {
		t.Fatalf("gossip pass: err=%v failed=%d", err, b.failed)
	}
	x := append([]float64(nil), p.res.X...)
	lo, hi := 0, 0
	for i := range x {
		if x[i] < x[lo] {
			lo = i
		}
		if x[i] > x[hi] {
			hi = i
		}
	}
	x[lo], x[hi] = x[hi], x[lo] // same mass, wrong nodes
	if gap, err := costGap(in.models, x); err != nil || gap <= gossipCostTol {
		t.Errorf("swapped gossip plan: cost gap %v (err %v), want > %v", gap, err, gossipCostTol)
	}

	var first [32]byte
	b = newBench(3, 0, scales["tiny"], false)
	checkSameSeed(b, 0, &first, [32]byte{1}, "report")
	checkSameSeed(b, 1, &first, [32]byte{2}, "report")
	if b.failed != 1 {
		t.Errorf("differing same-seed digests: %d failed, want 1", b.failed)
	}
}
