package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"tanglefind"
)

// tiny is a test-size configuration: small inputs, short windows.
func tiny(t *testing.T, workload string, trace bool) *runCfg {
	t.Helper()
	return &runCfg{workload: workload, seed: 3, seconds: 0.3, trace: trace, scale: 0.03, out: t.TempDir()}
}

// TestSmoke runs every workload untraced and traced at a tiny size:
// each must pass its oracles and print exactly its catalog metrics as
// the last line.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"detect_batch", "serve_mixed", "eco_loop"} {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, wl, trace)
			var out bytes.Buffer
			code, err := run(context.Background(), cfg, &out)
			if err != nil || code != 0 {
				t.Fatalf("%s trace=%v: code %d, err %v\n%s", wl, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d metrics=%d want %d", wl, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or wrong unit (%+v)", wl, d.Name, m)
				}
			}
			if !strings.Contains(out.String(), "provenance: ") || !strings.Contains(out.String(), "input "+wl) {
				t.Errorf("%s: report lacks provenance or input stats", wl)
			}
			if trace && !strings.Contains(out.String(), "unattributed=") {
				t.Errorf("%s: traced report lacks the blocking-path breakdown", wl)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
			if !name.MatchString(w.Name) {
				t.Errorf("metric name %q does not fit [A-Za-z0-9_.-]+", w.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
}

// perturb returns a digest that differs from d.
func perturb(d digest) digest {
	d.sum[0] ^= 1
	return d
}

func TestDetectOracleRejectsPerturbedResults(t *testing.T) {
	cfg := tiny(t, "detect_batch", false)
	env, err := detectSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := env.measure(context.Background(), nil, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if errs := env.oracle(ph, nil); len(errs) != 0 {
		t.Fatalf("clean run rejected: %v", errs)
	}

	// A repetition whose score moved.
	last := len(ph.flat) - 1
	bad := *ph.flat[last].res
	bad.GTLs = append([]tanglefind.GTL(nil), bad.GTLs...)
	bad.GTLs[0].GTLSD += 1e-9
	ph2 := *ph
	ph2.flat = append(append([]detectRun(nil), ph.flat[:last]...), detectRun{design: ph.flat[last].design, res: &bad})
	if errs := env.oracle(&ph2, nil); len(errs) == 0 {
		t.Error("a repetition with a different score passed")
	}

	// A result that found no planted block.
	lost := *ph.flat[0].res
	lost.GTLs = nil
	if errs := plantedOracle("flat", env.ds[0], &lost); len(errs) == 0 {
		t.Error("a run that found no planted block passed")
	}

	// Multilevel results that found nothing, lost the larger block, or
	// lost their seeds.
	ml := ph.ml[0]
	d := env.ds[ml.design]
	none := *ml.res
	none.GTLs = nil
	if errs := env.oracle(&detectPhase{ml: []detectRun{{design: ml.design, res: &none}}}, nil); len(errs) == 0 {
		t.Error("a multilevel run with no GTLs passed")
	}
	in := map[tanglefind.CellID]bool{}
	for _, c := range d.Blocks[0] {
		in[c] = true
	}
	partial := *ml.res
	partial.GTLs = nil
	for _, g := range ml.res.GTLs {
		if _, hit := bestOverlap(in, []tanglefind.GTL{g}); hit == 0 {
			partial.GTLs = append(partial.GTLs, g)
		}
	}
	if errs := plantedOracle("multilevel", d, &partial); len(errs) == 0 {
		t.Error("a multilevel run that lost a planted block passed")
	}
	unseeded := none
	unseeded.Seeds = nil
	if errs := plantedOracle("multilevel", d, &unseeded); len(errs) == 0 {
		t.Error("a multilevel run with no seeds and no GTLs passed")
	}
}

func TestServeOracleRejectsPerturbedResults(t *testing.T) {
	ctx := context.Background()
	cfg := tiny(t, "serve_mixed", false)
	env, err := serveSetup(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := env.measure(ctx, 0.3)
	env.close()
	if err != nil {
		t.Fatal(err)
	}
	if errs, _ := env.oracle(ph); len(errs) != 0 {
		t.Fatalf("clean run rejected: %v", errs)
	}
	var sawFind, sawLint bool
	for i, s := range ph.jobs {
		if (s.lint && sawLint) || (!s.lint && sawFind) {
			continue
		}
		sawLint, sawFind = sawLint || s.lint, sawFind || !s.lint
		orig := s.run.got
		ph.jobs[i].run.got = perturb(orig)
		if errs, _ := env.oracle(ph); len(errs) == 0 {
			t.Errorf("a perturbed %s result passed", s.run.st.Kind)
		}
		ph.jobs[i].run.got = orig
	}
	if !sawFind || !sawLint {
		t.Fatalf("run served no find or no lint job (find=%v lint=%v)", sawFind, sawLint)
	}
}

func TestEcoOracleRejectsPerturbedResults(t *testing.T) {
	ctx := context.Background()
	cfg := tiny(t, "eco_loop", false)
	env, err := ecoInputs(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := env.phase(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := env.oracle(ph); len(errs) != 0 {
		t.Fatalf("clean run rejected: %v", errs)
	}
	lr, last := len(ph.rounds)-1, ecoRoundSteps-1
	st := ph.rounds[lr][last]
	for name, mutate := range map[string]func(*ecoStep){
		"find_incremental": func(s *ecoStep) { s.find.got = perturb(s.find.got) },
		"lint":             func(s *ecoStep) { s.lint.got = perturb(s.lint.got) },
		"child digest":     func(s *ecoStep) { s.child = strings.Repeat("0", len(s.child)) },
	} {
		ph.rounds[lr][last] = st
		mutate(&ph.rounds[lr][last])
		if errs := env.oracle(ph); len(errs) == 0 {
			t.Errorf("a perturbed %s passed", name)
		}
	}
}
