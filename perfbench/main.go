// Command perfbench is tanglefind's end-to-end benchmark. It runs one
// workload — detect_batch, serve_mixed or eco_loop — for a fixed time,
// checks every output against an oracle outside the timed window, and
// prints its metrics, ending with one JSON result line.
//
// Usage:
//
//	perfbench --workload detect_batch --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced, each for half of
// --seconds, and prints the per-layer metrics. Spans of a traced run
// are written under --out. See README.md for the workloads, the
// metrics and the layer map.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // input size factor: 1 in the benchmark, tiny in its tests
	out      string  // directory for spans and scratch data dirs
}

// window is the length of one measured phase: the whole run, or half
// of it when the run is traced and measures twice.
func (c *runCfg) window() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// outcome is what a workload hands back besides its metrics.
type outcome struct {
	setup             []float64 // seconds per set-up repetition
	attempted, failed int
	oracle            []string // mismatches; any one fails the run
	spans             *tracer
}

var workloads = map[string]func(context.Context, *runCfg, *report) (*outcome, error){
	"detect_batch": runDetect,
	"serve_mixed":  runServe,
	"eco_loop":     runEco,
}

func main() {
	cfg := runCfg{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "detect_batch, serve_mixed or eco_loop")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured time of the run (a traced run splits it between its untraced and traced halves)")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced run and prints per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files and temporary data dirs")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(context.Background(), &cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one workload and prints its report; the exit code is 0
// only when every oracle passed.
func run(ctx context.Context, cfg *runCfg, w io.Writer) (int, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return 1, err
	}
	rep := newReport(w)
	rep.note("provenance: workload=%s seed=%d seconds=%g trace=%v scale=%g nproc=%d GOMAXPROCS=%d go=%s os=%s/%s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, nproc(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	steal0 := readCPUTimes()
	out, err := fn(ctx, cfg, rep)
	if err != nil {
		return 1, err
	}
	rep.note("provenance: hypervisor steal %.1f%% of the machine's CPU time during the run", 100*stealFrac(steal0, readCPUTimes()))
	if out.spans != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			return 1, fmt.Errorf("write spans: %w", err)
		}
		rep.note("spans: %d written to %s", len(out.spans.snapshot()), path)
	}
	for _, e := range out.oracle {
		rep.note("ORACLE FAILED: %s", e)
	}
	correct := len(out.oracle) == 0
	line, err := rep.resultLine(cfg.trace, correct, out.attempted, out.failed)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1, errors.New("outputs failed their oracle")
	}
	return 0, nil
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 3

// repeatSetup runs fn setupReps times, keeping the last result (fn
// overwrites its own outputs), and returns each repetition's seconds.
func repeatSetup(fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func (r *report) setSetup(reps []float64) {
	s := append([]float64(nil), reps...)
	sort.Float64s(s)
	r.set("setup_s", median(s), fmt.Sprintf("median of %d set-ups %v", len(s), s))
}
