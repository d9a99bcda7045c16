package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minPasses is the fewest timed passes a run makes, whatever its budget,
// so every median has several samples behind it.
const minPasses = 3

// setupReps is how often a workload whose set-up takes under a
// millisecond repeats it, so setup_s is a median of many samples.
const setupReps = 50

// bench carries one run's settings and everything it measures.
type bench struct {
	seed    int64
	budget  time.Duration
	scale   scale
	tracing bool
	tr      *tracer // nil when tracing is off

	attempted, failed int64
	rssPeaks          []float64 // each timed pass's peak resident set, MB
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int
	notes             map[string]any
}

func newBench(seed int64, budget time.Duration, sc scale, tracing bool) *bench {
	b := &bench{
		seed:    seed,
		budget:  budget,
		scale:   sc,
		tracing: tracing,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
		notes:   map[string]any{},
	}
	if tracing {
		b.tr = newTracer()
	}
	return b
}

// ops records n attempted operations.
func (b *bench) ops(n int64) { b.attempted += n }

// fail records n failed operations and says why on standard error.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed (%d ops): %s\n", n, fmt.Sprintf(format, args...))
}

// more reports whether another timed pass fits: at least minPasses, then
// as many as start the budget.
func (b *bench) more(pass int, start time.Time) bool {
	return pass < minPasses || time.Since(start) < b.budget
}

// rssEvery is how often a timed pass samples the resident set.
const rssEvery = 5 * time.Millisecond

// startPass begins a timed pass. It collects the last pass's garbage and
// returns the freed memory to the OS, so every pass starts from the live
// set rather than from the last pass's high-water mark, then samples the
// resident set until the returned function is called, which records the
// pass's peak. peak_rss_mb is the median of these peaks: the process's
// own high-water mark is the largest of them, one draw of the collector's
// timing, and swung by a fifth between runs of the same seed.
func (b *bench) startPass() (endPass func()) {
	debug.FreeOSMemory()
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		peak := residentMB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return func() {
		close(stop)
		b.rssPeaks = append(b.rssPeaks, <-done)
	}
}

// setE2E records an end-to-end metric with its sample count.
func (b *bench) setE2E(name string, v float64, n int) {
	b.e2e[name] = v
	b.samples[name] = n
}

// setLayer records a per-layer metric with its sample count.
func (b *bench) setLayer(name string, v float64, n int) {
	b.layer[name] = v
	b.samples[name] = n
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timings summarises one timing pass by pass. A run keeps each pass's
// median and tail quantile rather than its samples, so that the samples
// of earlier passes do not add to the resident set later passes measure,
// and reports the median of each over passes. A host stall that slows one
// or two passes of a run then shifts a figure by that many samples of
// the median; pooled over the run, such a stall owned the tail.
type timings struct {
	q           float64 // the tail quantile
	p50s, tails []float64
	n           int
	sum         float64
}

func (t *timings) add(pass []float64) {
	for _, x := range pass {
		t.sum += x
	}
	t.n += len(pass)
	t.p50s = append(t.p50s, median(pass))
	t.tails = append(t.tails, quantile(pass, t.q))
}

func (t *timings) p50() float64  { return median(t.p50s) }
func (t *timings) tail() float64 { return median(t.tails) }
func (t *timings) mean() float64 { return ratio(t.sum, float64(t.n)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// residentMB reads the process's current resident set (VmRSS) in MiB, or
// falls back to the memory the Go runtime holds from the OS where /proc
// is unavailable.
func residentMB() float64 {
	if mb := procStatusMB("VmRSS:"); mb > 0 {
		return mb
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// procStatusMB reads one kB field of /proc/self/status in MiB, or 0.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo describes the machine the numbers come from. GOMAXPROCS is
// the value in effect, which can differ from the core count.
func hostInfo() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q load_workers=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, maxLoadWorkers())
}

// memDelta measures allocation and GC CPU time over a stretch of work.
type memDelta struct {
	ms      runtime.MemStats
	samples []metrics.Sample
}

func startMem() *memDelta {
	d := &memDelta{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	runtime.ReadMemStats(&d.ms)
	metrics.Read(d.samples)
	return d
}

// stop records per-item allocation counts and the GC's share of CPU time
// since start as the runtime.* per-layer metrics.
func (d *memDelta) stop(b *bench, items float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := []metrics.Sample{{Name: d.samples[0].Name}, {Name: d.samples[1].Name}}
	metrics.Read(now)
	gc := now[0].Value.Float64() - d.samples[0].Value.Float64()
	total := now[1].Value.Float64() - d.samples[1].Value.Float64()
	b.setLayer("runtime.mallocs_per_item", ratio(float64(ms.Mallocs-d.ms.Mallocs), items), 1)
	b.setLayer("runtime.alloc_bytes_per_item", ratio(float64(ms.TotalAlloc-d.ms.TotalAlloc), items), 1)
	b.setLayer("runtime.gc_cpu_frac", ratio(gc, total), 1)
}

// overhead records how much slower the traced pass ran than the
// untraced one, for the pass and for the median operation.
func (b *bench) overhead(untracedPass, tracedPass, untracedOp, tracedOp float64) {
	b.setLayer("trace.overhead_frac", ratio(tracedPass, untracedPass)-1, 1)
	b.setLayer("trace.overhead_op_frac", ratio(tracedOp, untracedOp)-1, 1)
}

// scale sizes every workload's inputs.
type scale struct {
	catalogObjects int // objects in the catalog
	catalogEpochs  int // Drift/ReSolve epochs per pass
	gossipNodes    int // nodes of each aggregation cluster
	gossipGraphs   int // graphs (files) planned per pass
	serveTicks     int // ticks of each load script, split over its phases
	serveStreams   int // load scripts (request streams) per pass
	serveRPS       int // steady request rate per tick
}

// scales are the named input sizes: full for measurement, tiny for the
// smoke test.
var scales = map[string]scale{
	"full": {catalogObjects: 50000, catalogEpochs: 15, gossipNodes: 128, gossipGraphs: 4, serveTicks: 40, serveStreams: 4, serveRPS: 260},
	"tiny": {catalogObjects: 600, catalogEpochs: 2, gossipNodes: 16, gossipGraphs: 2, serveTicks: 12, serveStreams: 2, serveRPS: 24},
}
