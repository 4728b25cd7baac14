package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one entry of the benchmark's metric catalog; BENCHMARK.json
// lists the same names (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are printed by every workload's untraced run. Each
// workload reads "primary" and "secondary" as its own two headline
// operations (see README.md); the workload-specific names
// (find_flat_s, eco_p50_ms, ...) are printed alongside.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"primary_p50_ms", "ms", "lower"},
	{"secondary_p50_ms", "ms", "lower"},
}

// perLayer are printed by every workload's traced run; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"netlist.parse_ms", "ms", "lower"},
	{"netlist.coarsen_ms", "ms", "lower"},
	{"core.new_finder_ms", "ms", "lower"},
	{"core.grow_ms", "ms", "lower"},
	{"core.score_ms", "ms", "lower"},
	{"core.recombine_ms", "ms", "lower"},
	{"core.prune_ms", "ms", "lower"},
	{"core.coarse_detect_ms", "ms", "lower"},
	{"core.project_ms", "ms", "lower"},
	{"core.replay_ms", "ms", "lower"},
	{"core.reseed_ms", "ms", "lower"},
	{"core.incr_reuse_ratio", "frac", "higher"},
	{"core.seeds_run", "count", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.seeds_stolen", "count", "lower"},
	{"core.worker_busy_frac", "frac", "higher"},
	{"lint.engine_ms", "ms", "lower"},
	{"lint.incremental_ratio", "frac", "higher"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.merge_ms", "ms", "lower"},
	{"jobs.hit_p50_ms", "ms", "lower"},
	{"jobs.first_event_ms", "ms", "lower"},
	{"jobs.cache_hit_ratio", "frac", "higher"},
	{"jobs.coalesced_ratio", "frac", "higher"},
	{"jobs.engine_runs_per_job", "frac", "lower"},
	{"store.put_blob_ms", "ms", "lower"},
	{"store.append_ms", "ms", "lower"},
	{"store.get_blob_ms", "ms", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"store.ingest_self_ms", "ms", "lower"},
	{"store.delta_self_ms", "ms", "lower"},
	{"store.bytes_written", "bytes", "lower"},
	{"store.write_amp", "frac", "lower"},
	{"store.journal_bytes", "bytes", "lower"},
	{"store.lazy_reloads", "count", "lower"},
	{"store.evictions", "count", "lower"},
	{"server.upload_ms", "ms", "lower"},
	{"server.submit_ms", "ms", "lower"},
	{"server.delta_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"client.overhead_ms", "ms", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"e2e.error_frac", "frac", "lower"},
	{"e2e.tail_ms", "ms", "lower"},
	{"e2e.recovery_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unattributed_ms", "ms", "lower"},
}

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and writes the human-readable
// lines that precede the JSON result line.
type report struct {
	w       io.Writer
	metrics map[string]metricVal
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: map[string]metricVal{}} }

func (r *report) note(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// set records a catalog metric, with its sample count and statistic
// for the provenance line.
func (r *report) set(name string, v float64, detail string) {
	unit := ""
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic("perfbench: metric " + name + " is not in the catalog")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	r.note("metric %s = %.6g %s (%s)", name, v, unit, detail)
}

// alias prints a workload-specific metric name next to the catalog
// metric that carries its value.
func (r *report) alias(name string, v float64, unit, detail string) {
	r.note("metric %s = %.6g %s (%s)", name, v, unit, detail)
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// resultLine keeps exactly the catalog metrics of the run's kind.
func (r *report) resultLine(traced, correct bool, attempted, failed int) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricVal{}}
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = m
	}
	return json.Marshal(out)
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest of the percentiles 99.9, 99, 95, 90, 75
// and 50 that has at least ten samples beyond it, with that percentile.
func tail(xs []float64) (value, pct float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- process-wide measurements ----

func nproc() int { return runtime.NumCPU() }

// rssWatch samples the resident set until peak is called. Starting it
// first hands memory freed by input generation back to the OS, so the
// peak describes the measured window, not the set-up.
type rssWatch struct {
	stop chan struct{}
	done chan float64
}

func watchRSS() *rssWatch {
	debug.FreeOSMemory()
	w := &rssWatch{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var peak float64
		for {
			peak = max(peak, rssMB())
			select {
			case <-w.stop:
				w.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// peak stops the sampler and returns the highest resident set seen.
func (w *rssWatch) peak() float64 {
	close(w.stop)
	return max(<-w.done, rssMB())
}

// rssMB is the current resident set, from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runtimeSample is a point-in-time read of the Go runtime's counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// setRuntime records GC CPU share and allocation per operation over
// the window [from, now].
func (r *report) setRuntime(from runtimeSample, ops int) {
	to := readRuntime()
	r.set("go.gc_cpu_frac", ratio(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU), "runtime/metrics over the traced window")
	r.set("go.alloc_mb_per_op", ratio((to.allocBytes-from.allocBytes)/1e6, float64(ops)), fmt.Sprintf("heap allocs over %d ops", ops))
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat: total jiffies
// and the share the hypervisor gave to other guests (steal).
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t.total += x
		}
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

func stealFrac(a, b cpuTimes) float64 { return ratio(b.steal-a.steal, b.total-a.total) }
