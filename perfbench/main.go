// Command perfbench is the repository's benchmark. One invocation runs one
// workload at one seed:
//
//	perfbench -workload catalog|gossip|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 it repeats the workload's timed pass for about S seconds
// and reports the end-to-end metrics; with -trace 1 it runs one untraced
// and one traced pass, probes the layers underneath, writes the recorded
// spans to .bench_build/trace, and reports the per-layer metrics
// instead. Every output the workload produces is checked (invariants,
// certificates, same-seed determinism); a failed check counts as a
// failed operation.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The lines before it restate each metric with its sample count and the
// host the numbers were measured on. BENCHMARK.json at the repository
// root lists the metric names, units and regression bounds; README.md in
// this directory says what each metric measures on each workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// def names one reported metric, its unit, and for a per-layer metric
// the end-to-end metric it should move, on which workload.
type def struct{ name, unit, moves string }

// endToEnd are the metrics a -trace 0 run reports, in output order. Each
// has a meaning on every workload (README.md has the table).
var endToEnd = []def{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"pass_s", "s", ""},
	{"step_p50_ms", "ms", ""},
	{"step_p99_ms", "ms", ""},
	{"op_p50_us", "us", ""},
	{"op_p99.5_us", "us", ""},
}

// perLayer are the metrics a -trace 1 run reports, each with the
// end-to-end metric it should move. A layer the workload does not
// exercise reports 0.
var perLayer = []def{
	{"catalog.SolveCold.s", "s", "pass_s on catalog"},
	{"catalog.Sense.s", "s", "none (untimed end to end) on catalog"},
	{"catalog.Drift.s", "s", "none (untimed end to end) on catalog"},
	{"catalog.ReSolve.s", "s", "step_p50_ms on catalog"},
	{"catalog.cold.steps_per_object", "steps/object", "pass_s on catalog"},
	{"catalog.cold.unconverged", "count", "pass_s, op_p99.5_us on catalog"},
	{"catalog.resolve.steps_per_drifted", "steps/object", "step_p50_ms on catalog"},
	{"catalog.resolve.skip_frac", "ratio", "step_p50_ms on catalog"},
	{"catalog.resolve.warm_frac", "ratio", "step_p50_ms on catalog"},
	{"catalog.resolve.fallback_frac", "ratio", "step_p50_ms on catalog"},
	{"sweep.items", "count", "pass_s on catalog"},
	{"sweep.speedup", "ratio", "pass_s on catalog"},
	{"core.cold_solve_us_p50", "us", "pass_s, op_p50_us on catalog"},
	{"core.cold_solve_us_p99", "us", "op_p99.5_us on catalog"},
	{"core.warm_solve_us_p50", "us", "step_p50_ms on catalog"},
	{"core.warm_solve_us_p99", "us", "step_p99_ms on catalog"},
	{"core.plan_step_ns", "ns", "pass_s, step_p50_ms on catalog"},
	{"core.probe_steps_ratio", "ratio", "none (validates the core probe) on catalog"},
	{"costmodel.gradient_ns", "ns", "pass_s on catalog"},
	{"costmodel.evals_per_step", "evals/step", "pass_s on catalog"},
	{"costmodel.self_frac", "ratio", "pass_s on catalog"},
	{"costmodel.verify_kkt_us", "us", "step_p50_ms on catalog"},
	{"gossip.rounds", "count", "pass_s on gossip"},
	{"gossip.msgs_per_round", "msgs/round", "pass_s, step_p50_ms on gossip"},
	{"gossip.bytes_per_round", "bytes/round", "pass_s, step_p50_ms on gossip"},
	{"gossip.frames_per_msg", "ratio", "pass_s on gossip"},
	{"gossip.round_ms_p50", "ms", "step_p50_ms on gossip"},
	{"gossip.round_ms_p99", "ms", "step_p99_ms on gossip"},
	{"protocol.binary.encode_ns", "ns", "pass_s, op_p50_us on gossip"},
	{"protocol.binary.decode_ns", "ns", "pass_s, op_p50_us on gossip"},
	{"protocol.binary.msg_bytes", "bytes", "pass_s on gossip"},
	{"protocol.json.encode_access_ns", "ns", "op_p50_us on serve"},
	{"protocol.json.decode_reply_ns", "ns", "op_p50_us on serve"},
	{"transport.memory.sendrecv_ns", "ns", "pass_s on gossip; op_p50_us on serve"},
	{"transport.coalesce.sendrecv_ns", "ns", "pass_s on gossip"},
	{"transport.client.retries_per_req", "ratio", "op_p99.5_us on serve"},
	{"transport.client.deadline_misses", "count", "op_p99.5_us on serve"},
	{"transport.client.admission_rejects", "count", "op_p99.5_us on serve"},
	{"transport.client.unmatched_replies", "count", "op_p99.5_us on serve"},
	{"transport.client.node_down", "count", "op_p99.5_us on serve"},
	{"agent.fallback_frac", "ratio", "op_p99.5_us on serve"},
	{"agent.degraded_frac", "ratio", "op_p99.5_us on serve"},
	{"agent.replans", "count", "step_p99_ms on serve"},
	{"agent.replans_rejected", "count", "step_p99_ms on serve"},
	{"agent.cold_fallbacks", "count", "step_p99_ms on serve"},
	{"agent.solve_iters_per_replan", "iters", "step_p99_ms on serve"},
	{"agent.replan_us", "us", "step_p99_ms on serve"},
	{"agent.probe_iters_ratio", "ratio", "none (validates the re-plan probe) on serve"},
	{"loadgen.fire_share", "ratio", "pass_s on serve"},
	{"loadgen.tick_share", "ratio", "pass_s on serve"},
	{"runtime.mallocs_per_item", "count", "pass_s, peak_rss_mb on every workload"},
	{"runtime.alloc_bytes_per_item", "bytes", "pass_s, peak_rss_mb on every workload"},
	{"runtime.gc_cpu_frac", "ratio", "pass_s on every workload"},
	{"trace.overhead_frac", "ratio", "none (tracing cost) on every workload"},
	{"trace.overhead_op_frac", "ratio", "none (tracing cost) on every workload"},
	{"trace.spans", "count", "none (tracing cost) on every workload"},
}

// traceDir is where a traced run writes its spans, relative to the
// working directory; .gitignore covers it.
const traceDir = ".bench_build/trace"

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"catalog": runCatalog,
	"gossip":  runGossip,
	"serve":   runServe,
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxLoadWorkers caps the goroutines that generate load (sweep workers,
// load-generator workers) at the host's core count, and at two.
func maxLoadWorkers() int {
	return min(2, runtime.NumCPU())
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: catalog, gossip or serve")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the measured passes")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	scaleName := fs.String("scale", "full", "input sizes: full, or tiny for smoke tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), sc, *trace == 1)
	host := hostInfo()
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%v trace=%d scale=%s\n", *name, *seed, *seconds, *trace, *scaleName)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := wl(ctx, b); err != nil {
		return fmt.Errorf("workload %s: %w", *name, err)
	}
	if b.tracing {
		if err := b.tr.write(traceDir, *name, *seed, host); err != nil {
			return err
		}
	}

	defs := endToEnd
	values := b.e2e
	if b.tracing {
		defs = perLayer
		values = b.layer
	} else {
		values["peak_rss_mb"] = median(b.rssPeaks)
		b.samples["peak_rss_mb"] = len(b.rssPeaks)
		b.notes["process_peak_rss_mb"] = peakRSSMB()
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			if !b.tracing {
				return fmt.Errorf("workload %s did not measure %s", *name, d.name)
			}
			v = 0 // the workload does not exercise this layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-36s %16.6g %-12s n=%-8d %s\n", d.name, v, d.unit, b.samples[d.name], d.moves)
	}
	extra := make([]string, 0, len(b.notes))
	for k := range b.notes {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(stdout, "note %s = %v\n", k, b.notes[k])
	}
	var frac float64
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d operations)\n", frac, b.failed, b.attempted)
	if b.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", *name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
