package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"tanglefind"
)

// detect_batch: one-shot full-chip detection as a gtlfind/gtlexp user
// runs it. The engine does nearly all the work; no serving layer runs.
// A run rotates over a few designs of one shape, so its medians speak
// for the shape rather than for one random graph's luck with seeds.

const detectDesigns = 8

type detectEnv struct {
	ds   []*design
	opt  tanglefind.Options // flat; the multilevel op adds Levels
	coar tanglefind.CoarsenOptions
}

// detectSetup generates the designs: Table-1-style random graphs with
// two planted blocks plus a fanout tail of wide nets.
func detectSetup(cfg *runCfg) (*detectEnv, error) {
	r := rng(cfg.seed, 1)
	cells := scaled(100_000, cfg.scale, 3000)
	blocks := []int{scaled(2000, cfg.scale, 150), scaled(1000, cfg.scale, 100)}
	opt := findOptions(100, blocks[0], cells)
	opt.Workers = nproc()
	env := &detectEnv{opt: opt, coar: tanglefind.CoarsenOptions{Levels: 3, MinCells: opt.MinCoarseCells}}
	for i := 0; i < detectDesigns; i++ {
		d, err := plantedDesign(fmt.Sprintf("detect_batch-%d", i), cells, blocks, r)
		if err != nil {
			return nil, err
		}
		if err := addFanoutTail(d, cells/200, r); err != nil {
			return nil, err
		}
		if err := d.encode(); err != nil {
			return nil, err
		}
		d.Opt = opt
		env.ds = append(env.ds, d)
	}
	return env, nil
}

// detectRun is one completed operation.
type detectRun struct {
	design int
	res    *tanglefind.Result
	ms     float64
}

// detectPhase is one measured window's samples.
type detectPhase struct {
	flat, ml    []detectRun
	ops, failed int
	wall        time.Duration
}

func msOf(rs []detectRun) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ms
	}
	return out
}

func resultsOf(rs []detectRun) []*tanglefind.Result {
	out := make([]*tanglefind.Result, len(rs))
	for i, r := range rs {
		out[i] = r.res
	}
	return out
}

// find is one operation: read the bytes, build a fresh engine, run one
// Find.
func (e *detectEnv) find(ctx context.Context, tr *tracer, d *design, levels int) (*tanglefind.Result, time.Duration, error) {
	opt := e.opt
	opt.Levels = levels
	kind := "find_flat"
	if levels > 1 {
		kind = "find_multilevel"
	}
	var res *tanglefind.Result
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	err := tr.op(ctx, kind, func(ctx context.Context) error {
		var nl *tanglefind.Netlist
		var f *tanglefind.Finder
		err := tr.call(ctx, "netlist.parse", func(context.Context) (err error) {
			nl, err = tanglefind.ReadNetlist(bytes.NewReader(d.Bytes))
			return err
		})
		if err == nil {
			err = tr.call(ctx, "core.new_finder", func(context.Context) (err error) {
				f, err = tanglefind.NewFinder(nl)
				return err
			})
		}
		if err == nil {
			err = tr.call(ctx, "core.find", func(ctx context.Context) (err error) {
				res, err = f.Find(ctx, opt)
				return err
			})
		}
		return err
	})
	return res, time.Since(t0), err
}

// measure repeats flat + multilevel operations for the window, each
// design at least twice.
func (e *detectEnv) measure(ctx context.Context, tr *tracer, seconds float64) (*detectPhase, error) {
	ph := &detectPhase{}
	start := time.Now()
	for rep := 0; time.Since(start).Seconds() < seconds || rep < 2*len(e.ds); rep++ {
		di := rep % len(e.ds)
		d := e.ds[di]
		for _, levels := range []int{1, 3} {
			res, dur, err := e.find(ctx, tr, d, levels)
			ph.ops++
			if err != nil {
				return ph, fmt.Errorf("detect_batch %s levels=%d: %w", d.Name, levels, err)
			}
			run := detectRun{design: di, res: res, ms: ms(dur)}
			if levels == 1 {
				ph.flat = append(ph.flat, run)
			} else {
				ph.ml = append(ph.ml, run)
			}
		}
		if tr != nil {
			// The multilevel op's coarsening, timed on its own.
			if err := tr.op(ctx, "coarsen", func(ctx context.Context) error {
				return tr.call(ctx, "netlist.coarsen", func(context.Context) error {
					nl, err := tanglefind.ReadNetlist(bytes.NewReader(d.Bytes))
					if err == nil {
						_, err = tanglefind.BuildHierarchy(nl, e.coar)
					}
					return err
				})
			}); err != nil {
				return nil, err
			}
		}
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// oracle checks planted recovery on each design and that every
// repetition of a design returned the same GTLs; ref, when non-nil, is
// another phase over the same designs the phase must also equal.
func (e *detectEnv) oracle(ph *detectPhase, ref *detectPhase) []string {
	var errs []string
	for _, set := range []struct {
		label string
		runs  []detectRun
		ref   []detectRun
	}{{"flat", ph.flat, nil}, {"multilevel", ph.ml, nil}} {
		if ref != nil {
			set.ref = ref.flat
			if set.label == "multilevel" {
				set.ref = ref.ml
			}
		}
		first := map[int]digest{}
		for _, r := range set.ref {
			if _, seen := first[r.design]; !seen {
				first[r.design] = digestGTLs(canonFacade(r.res))
			}
		}
		for i, r := range set.runs {
			got := digestGTLs(canonFacade(r.res))
			want, seen := first[r.design]
			if !seen {
				first[r.design] = got
				errs = append(errs, plantedOracle(set.label+" "+e.ds[r.design].Name, e.ds[r.design], r.res)...)
				continue
			}
			if err := checkDigest(fmt.Sprintf("%s %s repetition %d vs the design's first run", set.label, e.ds[r.design].Name, i), want, got); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	return errs
}

func runDetect(ctx context.Context, cfg *runCfg, rep *report) (*outcome, error) {
	rep.note("workload detect_batch: one-shot full-chip detection (read + NewFinder + Find, flat and Levels=3); the engine does nearly all the work, no serving layer runs")
	var env *detectEnv
	setup, err := repeatSetup(func() error {
		var err error
		env, err = detectSetup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, d := range env.ds {
		printStats(rep.w, d.Name, d.NL)
		d.NL = nil // the bytes are the input; the oracle needs only the blocks
	}
	rep.note("input detect_batch: %d designs, planted blocks %d+%d cells, %d bytes .tfb each, options seeds=%d max_order_len=%d workers=%d",
		len(env.ds), len(env.ds[0].Blocks[0]), len(env.ds[0].Blocks[1]), len(env.ds[0].Bytes), env.opt.Seeds, env.opt.MaxOrderLen, env.opt.Workers)

	out := &outcome{setup: setup}
	rw := watchRSS()
	base, err := env.measure(ctx, nil, cfg.window())
	rss := rw.peak()
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = base.ops, base.failed
	if !cfg.trace {
		out.oracle = env.oracle(base, nil)
		rep.setSetup(setup)
		rep.set("peak_rss_mb", rss, "highest resident set sampled over the measured window")
		rep.set("ok_frac", 1-ratio(float64(base.failed), float64(base.ops)), fmt.Sprintf("%d ops", base.ops))
		rep.set("ops_per_s", float64(base.ops-base.failed)/base.wall.Seconds(), fmt.Sprintf("%d finds in %.2fs", base.ops-base.failed, base.wall.Seconds()))
		flat, ml := msOf(base.flat), msOf(base.ml)
		rep.set("primary_p50_ms", median(flat), fmt.Sprintf("median of %d flat finds", len(flat)))
		rep.set("secondary_p50_ms", median(ml), fmt.Sprintf("median of %d multilevel finds", len(ml)))
		rep.alias("find_flat_s", median(flat)/1000, "s", fmt.Sprintf("median of %d", len(flat)))
		rep.alias("find_multilevel_s", median(ml)/1000, "s", fmt.Sprintf("median of %d", len(ml)))
		return out, nil
	}

	tr := newTracer()
	rt := readRuntime()
	traced, err := env.measure(ctx, tr, cfg.window())
	if err != nil {
		return nil, err
	}
	out.attempted += traced.ops
	out.failed += traced.failed
	out.oracle = append(env.oracle(base, nil), env.oracle(traced, base)...)
	out.spans = tr
	v := analyze(tr.snapshot())

	rep.set("netlist.parse_ms", v.meanMS("netlist.parse"), fmt.Sprintf("mean of %d", len(v.named("netlist.parse"))))
	rep.set("netlist.coarsen_ms", v.meanMS("netlist.coarsen"), fmt.Sprintf("mean of %d BuildHierarchy calls", len(v.named("netlist.coarsen"))))
	rep.set("core.new_finder_ms", v.meanMS("core.new_finder"), fmt.Sprintf("mean of %d", len(v.named("core.new_finder"))))
	engineLayer(rep, resultsOf(traced.flat), resultsOf(traced.ml))
	tv, tp := tail(msOf(base.flat))
	rep.set("e2e.tail_ms", tv, fmt.Sprintf("flat find p%g of %d (untraced)", tp, len(base.flat)))
	rep.set("e2e.error_frac", ratio(float64(base.failed), float64(base.ops)), fmt.Sprintf("%d ops (untraced)", base.ops))
	rep.set("trace.overhead_frac", median(msOf(traced.flat))/median(msOf(base.flat))-1, "traced ÷ untraced median flat find − 1")
	printPath(rep, "op.find_multilevel", v)
	rep.set("trace.unattributed_ms", printPath(rep, "op.find_flat", v), "mean per flat find")
	rep.setRuntime(rt, traced.ops)
	zero(rep, "core.replay_ms", "core.reseed_ms", "core.incr_reuse_ratio", "lint.engine_ms", "lint.incremental_ratio",
		"jobs.queue_wait_ms", "jobs.merge_ms", "jobs.hit_p50_ms", "jobs.first_event_ms", "jobs.cache_hit_ratio",
		"jobs.coalesced_ratio", "jobs.engine_runs_per_job", "store.put_blob_ms", "store.append_ms", "store.get_blob_ms",
		"store.replay_ms", "store.ingest_self_ms", "store.delta_self_ms", "store.bytes_written", "store.write_amp",
		"store.journal_bytes", "store.lazy_reloads", "store.evictions", "server.upload_ms", "server.submit_ms",
		"server.delta_ms", "server.rejected", "client.overhead_ms", "e2e.recovery_ms")
	return out, nil
}

// engineLayer records the engine's stage breakdown, averaged per find:
// per-seed phases from the flat finds (summed across workers, as the
// engine reports them; recombine includes the Phase III re-grows),
// coarse detection and projection from the multilevel ones.
func engineLayer(rep *report, flat, ml []*tanglefind.Result) {
	stage := func(rs []*tanglefind.Result, name string) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, ms(r.Stages[name]))
		}
		return mean(xs)
	}
	n := fmt.Sprintf("mean over %d flat finds", len(flat))
	rep.set("core.grow_ms", stage(flat, "grow"), n)
	rep.set("core.score_ms", stage(flat, "score"), n)
	rep.set("core.recombine_ms", stage(flat, "recombine"), n+"; includes the Phase III re-grows")
	rep.set("core.prune_ms", stage(flat, "prune"), n)
	rep.set("core.coarse_detect_ms", stage(ml, "coarse_detect"), fmt.Sprintf("mean over %d multilevel finds", len(ml)))
	rep.set("core.project_ms", stage(ml, "project"), fmt.Sprintf("mean over %d multilevel finds", len(ml)))
	var seeds, cands, stolen, busy []float64
	for _, r := range flat {
		seeds = append(seeds, float64(len(r.Seeds)))
		cands = append(cands, float64(r.Candidates))
		if r.Sched != nil {
			stolen = append(stolen, float64(r.Sched.SeedsStolen))
			var b int64
			for _, x := range r.Sched.WorkerBusyNS {
				b += x
			}
			busy = append(busy, ratio(float64(b), float64(r.Sched.Workers)*float64(r.Elapsed)))
		}
	}
	rep.set("core.seeds_run", mean(seeds), n)
	rep.set("core.candidates", mean(cands), n)
	rep.set("core.seeds_stolen", mean(stolen), n)
	rep.set("core.worker_busy_frac", mean(busy), n+"; Σ worker busy ÷ (workers × elapsed)")
}

// zero records metrics of layers the workload does not run.
func zero(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0, "layer not exercised by this workload")
	}
}
