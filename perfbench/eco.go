package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// eco_loop: the ECO edit loop. A design is uploaded and detected once
// with record_incremental (set-up); a chain of localized,
// pin-preserving site edits follows, each a POST …/deltas plus
// find_incremental and lint on the child, both to completion. Every
// step writes a blob and journal records; replay and LintDelta do the
// work instead of grow. After the chain the server is shut down and
// the data dir reopened, timing recovery to the first cache hit.
//
// A run repeats this as rounds of a fixed chain length on a fresh data
// dir, so the journal a recovery replays and the registry a round
// holds do not grow with how fast the steps ran. Rounds rotate over
// designs, so a run's medians speak for the shape of the loop rather
// than for one design's edit sites. The chain is long and the reopens
// cheap, so most of a round's time goes to measured steps rather than
// to its set-up.

const (
	ecoDesigns     = 20 // designs a run rotates over
	ecoRoundSteps  = 12 // ECO steps per round
	ecoRecoveries  = 4  // reopen cycles per round
	ecoMinRounds   = 3  // set-up is timed once per round; setup_s is their median
	ecoOracleSteps = 3  // steps re-detected from scratch, the last always included
	ecoSeeds       = 64 // finder seeds, as the repo's incremental experiment uses
)

// ecoInput is one design and its pre-generated edits, all on distinct
// nets so that any contiguous slice is a valid chain from the design.
type ecoInput struct {
	d      *design
	chain  []*tanglefind.Delta
	bodies [][]byte // chain as JSON
}

type ecoEnv struct {
	cfg *runCfg
	opt tanglefind.Options
	in  []*ecoInput
}

func ecoInputs(cfg *runCfg, w io.Writer) (*ecoEnv, error) {
	r := rng(cfg.seed, 4)
	cells := scaled(50_000, cfg.scale, 3000)
	blocks := []int{scaled(1600, cfg.scale, 150), scaled(800, cfg.scale, 100)}
	opt := findOptions(ecoSeeds, blocks[0], cells)
	opt.RecordIncremental = true
	e := &ecoEnv{cfg: cfg, opt: opt}
	for i := 0; i < ecoDesigns; i++ {
		d, err := plantedDesign(fmt.Sprintf("eco_loop-%d", i), cells, blocks, r)
		if err != nil {
			return nil, err
		}
		if err := d.encode(); err != nil {
			return nil, err
		}
		if i == 0 {
			printStats(w, "eco_loop", d.NL)
		}
		in := &ecoInput{d: d, chain: siteEdits(d.NL, d.Blocks, ecoRoundSteps, r)}
		d.NL = nil // the bytes are the input; the oracle parses them again
		if len(in.chain) < ecoRoundSteps {
			return nil, fmt.Errorf("eco_loop: only %d site edits found", len(in.chain))
		}
		for _, st := range in.chain {
			b, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
		}
		e.in = append(e.in, in)
	}
	return e, nil
}

// design returns the design round r runs the chain of.
func (e *ecoEnv) design(r int) *ecoInput { return e.in[r%len(e.in)] }

func (e *ecoEnv) req(kind api.Kind, digest string) api.JobRequest {
	raw, _ := json.Marshal(e.opt) // Options is a plain tagged struct
	return api.JobRequest{Kind: kind, Digest: digest, Options: raw}
}

// ecoStep is one completed edit.
type ecoStep struct {
	child      string
	find, lint jobRun
}

type ecoPhase struct {
	load
	rounds     [][]ecoStep // round r ran e.design(r)
	oracle     []string    // checks made while the service ran
	setupS     []float64
	stepMS     []float64
	deltaMS    []float64 // the POST …/deltas round trip of each step
	recoveryMS []float64
	written    int64   // data dir growth over the chains
	journal    int64   // journal size after one round
	rssMB      float64 // highest resident set over the rounds
}

// round runs one set-up, chain and restart cycle on a fresh data dir.
func (e *ecoEnv) round(ctx context.Context, tr *tracer, ph *ecoPhase) error {
	in := e.design(len(ph.rounds))
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.cfg.out, "eco-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := startService(ctx, dir, defaultCachePins, tr)
	if err != nil {
		return err
	}
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	info, err := svc.cl.UploadNetlist(ctx, in.d.Bytes)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	for _, req := range []api.JobRequest{e.req(api.KindFind, info.Digest), {Kind: api.KindLint, Digest: info.Digest}} {
		if _, err := svc.runJob(ctx, req); err != nil {
			return fmt.Errorf("baseline %s: %w", req.Kind, err)
		}
	}
	ph.setupS = append(ph.setupS, time.Since(t0).Seconds())

	before, err := svc.stats(ctx)
	if err != nil {
		return err
	}
	disk := diskBytes(dir)
	parent := info.Digest
	var steps []ecoStep
	for k := 0; k < ecoRoundSteps; k++ {
		var step ecoStep
		t0 := time.Now()
		err := tr.op(ctx, "eco_step", func(ctx context.Context) error {
			var dr api.DeltaResult
			d0 := time.Now()
			err := tr.call(ctx, "client.delta", func(ctx context.Context) (err error) {
				dr, err = svc.cl.ApplyDeltaJSON(ctx, parent, in.bodies[k])
				return err
			})
			if err != nil {
				return fmt.Errorf("delta: %w", err)
			}
			ph.deltaMS = append(ph.deltaMS, ms(time.Since(d0)))
			step.child = dr.Netlist.Digest
			if step.find, err = svc.runJob(ctx, e.req(api.KindFindIncremental, step.child)); err != nil {
				return err
			}
			step.lint, err = svc.runJob(ctx, api.JobRequest{Kind: api.KindLint, Digest: step.child})
			return err
		})
		ph.ops++
		ph.bytesSent += int64(len(in.bodies[k]))
		if err != nil {
			ph.failed++
			if refused(err) {
				ph.refusedN++
			}
			return fmt.Errorf("eco step %d: %w", k, err)
		}
		ph.stepMS = append(ph.stepMS, ms(time.Since(t0)))
		steps = append(steps, step)
		ph.jobs = append(ph.jobs, served{run: step.find}, served{lint: true, run: step.lint})
		parent = step.child
	}
	after, err := svc.stats(ctx)
	if err != nil {
		return err
	}
	ph.addStats(before, after)
	ph.rounds = append(ph.rounds, steps)
	err = svc.stop()
	svc = nil
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	ph.written += diskBytes(dir) - disk
	ph.journal = fileSize(dir, "journal.log")
	return e.restarts(ctx, tr, dir, info.Digest, steps, ph)
}

// restarts reopens the data dir ecoRecoveries times, timing store.Open
// + jobs.New rewarm + serving until the last step's lint is answered
// from the rewarmed cache; outside the timed window it checks that the
// resubmit ran nothing and that every digest of the chain resolves.
func (e *ecoEnv) restarts(ctx context.Context, tr *tracer, dir, base string, steps []ecoStep, ph *ecoPhase) error {
	last := steps[len(steps)-1].child
	for i := 0; i < ecoRecoveries; i++ {
		t0 := time.Now()
		var st api.JobStatus
		var svc *service
		err := tr.op(ctx, "recovery", func(ctx context.Context) error {
			var err error
			if svc, err = startService(ctx, dir, defaultCachePins, tr); err != nil {
				return err
			}
			return tr.call(ctx, "client.submit", func(ctx context.Context) (err error) {
				st, err = svc.cl.Submit(ctx, api.JobRequest{Kind: api.KindLint, Digest: last})
				return err
			})
		})
		d := time.Since(t0)
		if err != nil {
			if svc != nil {
				svc.stop()
			}
			return fmt.Errorf("recovery: %w", err)
		}
		ph.recoveryMS = append(ph.recoveryMS, ms(d))
		if !st.Cached || st.State != api.StateDone {
			ph.oracle = append(ph.oracle, fmt.Sprintf("recovery: resubmitted lint was not a cache hit (state %s)", st.State))
		}
		if stats, err := svc.stats(ctx); err != nil || stats.Jobs.EngineRuns != 0 || stats.Jobs.LintRuns != 0 {
			ph.oracle = append(ph.oracle, fmt.Sprintf("recovery: resubmit cost %d engine and %d lint runs, want 0 (%v)", stats.Jobs.EngineRuns, stats.Jobs.LintRuns, err))
		}
		for _, dg := range append([]string{base}, digestsOf(steps)...) {
			if _, err := svc.cl.Netlist(ctx, dg); err != nil {
				ph.oracle = append(ph.oracle, fmt.Sprintf("after reopen digest %s does not resolve: %v", dg, err))
				break
			}
		}
		if err := svc.stop(); err != nil {
			return fmt.Errorf("shutdown after recovery: %w", err)
		}
	}
	return nil
}

func digestsOf(steps []ecoStep) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.child
	}
	return out
}

// oracle re-detects a seeded sample of steps, always including the
// last run, from scratch with the facade: the child built locally must
// have the served digest, its find must equal the served
// find_incremental and its lint the served lint. Rounds that ran the
// same chain must have served the same results.
func (e *ecoEnv) oracle(ph *ecoPhase) []string {
	errs := append([]string(nil), ph.oracle...)
	type at struct{ round, step int }
	lastRound := len(ph.rounds) - 1
	pick := map[at]bool{{lastRound, ecoRoundSteps - 1}: true}
	r := rng(e.cfg.seed, 5)
	for len(pick) < ecoOracleSteps {
		pick[at{r.IntN(len(ph.rounds)), r.IntN(ecoRoundSteps)}] = true
	}
	var ats []at
	for a := range pick {
		ats = append(ats, a)
	}
	sort.Slice(ats, func(i, j int) bool {
		return ats[i].round < ats[j].round || ats[i].round == ats[j].round && ats[i].step < ats[j].step
	})
	for _, a := range ats {
		in := e.design(a.round)
		st := ph.rounds[a.round][a.step]
		where := fmt.Sprintf("%s step %d", in.d.Name, a.step)
		parent, err := tanglefind.ReadNetlist(bytes.NewReader(in.d.Bytes))
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: facade parse: %v", where, err))
			continue
		}
		child, _, err := mergeDeltas(in.chain[:a.step+1]).Apply(parent)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: local apply: %v", where, err))
			continue
		}
		var buf bytes.Buffer
		if err := child.WriteBinary(&buf); err != nil {
			errs = append(errs, fmt.Sprintf("%s: encode: %v", where, err))
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		if hex.EncodeToString(sum[:]) != st.child {
			errs = append(errs, fmt.Sprintf("%s: served child digest %s is not the locally built child", where, st.child))
		}
		opt := e.opt
		opt.RecordIncremental = false
		opt.Workers = nproc()
		res, err := tanglefind.Find(child, opt)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: facade Find: %v", where, err))
			continue
		}
		if err := checkDigest(where+" find_incremental vs from-scratch find", digestGTLs(canonFacade(res)), st.find.got); err != nil {
			errs = append(errs, err.Error())
		}
		if err := checkDigest(where+" lint vs facade Lint", digestStrings(lintFingerprints(tanglefind.Lint(child, tanglefind.LintConfig{}))), st.lint.got); err != nil {
			errs = append(errs, err.Error())
		}
	}
	period := len(e.in)
	for ri := period; ri < len(ph.rounds); ri++ {
		for k, st := range ph.rounds[ri] {
			want := ph.rounds[ri-period][k]
			if st.child != want.child || st.find.got != want.find.got || st.lint.got != want.lint.got {
				errs = append(errs, fmt.Sprintf("round %d step %d differs from round %d, which ran the same chain", ri, k, ri-period))
			}
		}
	}
	return errs
}

// phase runs rounds until the window is spent (at least ecoMinRounds).
func (e *ecoEnv) phase(ctx context.Context, tr *tracer) (*ecoPhase, error) {
	ph := &ecoPhase{}
	rw := watchRSS()
	start := time.Now()
	for len(ph.rounds) < ecoMinRounds || time.Since(start).Seconds() < e.cfg.window() {
		if err := e.round(ctx, tr, ph); err != nil {
			rw.peak()
			return nil, err
		}
	}
	ph.wall = time.Since(start)
	ph.rssMB = rw.peak()
	return ph, nil
}

func runEco(ctx context.Context, cfg *runCfg, rep *report) (*outcome, error) {
	rep.note("workload eco_loop: the write-heavy ECO loop; each step is a POST …/deltas then find_incremental and lint on the child, so blob/journal writes, replay and LintDelta do the work instead of grow; each round of %d steps ends with restart recovery", ecoRoundSteps)
	env, err := ecoInputs(cfg, rep.w)
	if err != nil {
		return nil, err
	}
	d := env.in[0].d
	rep.note("input eco_loop: %d designs, planted blocks %d+%d cells, %d site edits per round (2 nets each) from %d per design, options seeds=%d max_order_len=%d",
		len(env.in), len(d.Blocks[0]), len(d.Blocks[1]), ecoRoundSteps, len(env.in[0].chain), env.opt.Seeds, env.opt.MaxOrderLen)
	base, err := env.phase(ctx, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{setup: base.setupS, attempted: base.ops, failed: base.failed, oracle: env.oracle(base)}
	steps := len(base.stepMS)
	for r := range base.rounds {
		in := env.design(r)
		xs := base.stepMS[r*ecoRoundSteps : (r+1)*ecoRoundSteps]
		rep.note("round %d: %s, step p50 %.1fms", r, in.d.Name, median(xs))
	}
	if !cfg.trace {
		rep.setSetup(out.setup)
		rep.set("peak_rss_mb", base.rssMB, "highest resident set sampled over the rounds")
		rep.set("ok_frac", 1-ratio(float64(base.failed), float64(base.ops)), fmt.Sprintf("%d steps", base.ops))
		rep.set("ops_per_s", float64(steps)/sumMS(base.stepMS)*1000, fmt.Sprintf("%d ECO steps in %.2fs of stepping over %d rounds", steps, sumMS(base.stepMS)/1000, len(base.rounds)))
		rep.set("primary_p50_ms", median(base.stepMS), fmt.Sprintf("median of %d ECO steps", steps))
		rep.set("secondary_p50_ms", median(base.recoveryMS), fmt.Sprintf("median of %d restart recoveries", len(base.recoveryMS)))
		rep.alias("eco_p50_ms", median(base.stepMS), "ms", fmt.Sprintf("median of %d", steps))
		tv, tp := tail(base.stepMS)
		rep.alias("eco_tail_ms", tv, "ms", fmt.Sprintf("p%g of %d steps", tp, steps))
		rep.alias("recovery_ms", median(base.recoveryMS), "ms", fmt.Sprintf("median of %d", len(base.recoveryMS)))
		rep.alias("delta_p50_ms", median(base.deltaMS), "ms", fmt.Sprintf("POST …/deltas round trip, median of %d", len(base.deltaMS)))
		return out, nil
	}

	tr := newTracer()
	rt := readRuntime()
	traced, err := env.phase(ctx, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.ops
	out.failed += traced.failed
	out.oracle = append(out.oracle, env.oracle(traced)...)
	out.spans = tr
	v := analyze(tr.snapshot())

	var reused, rerun float64
	var replay, reseed []float64
	for _, s := range traced.jobs {
		if s.lint {
			continue
		}
		if inc := s.run.st.Result.Incremental; inc != nil {
			reused += float64(inc.ReusedSeeds)
			rerun += float64(inc.RerunSeeds)
		}
		replay = append(replay, ms(s.run.st.Result.Stages["engine_replay"]))
		reseed = append(reseed, ms(s.run.st.Result.Stages["engine_reseed"]))
	}
	serveLayers(rep, v, &traced.load)
	rep.set("core.replay_ms", mean(replay), fmt.Sprintf("mean over %d find_incremental runs", len(replay)))
	rep.set("core.reseed_ms", mean(reseed), fmt.Sprintf("mean over %d find_incremental runs", len(reseed)))
	rep.set("core.incr_reuse_ratio", ratio(reused, reused+rerun), fmt.Sprintf("%.0f reused, %.0f rerun seeds", reused, rerun))
	rep.set("store.delta_self_ms", v.meanSelfMS("server.delta"), "delta handler − backend time")
	rep.set("server.delta_ms", v.meanMS("server.delta"), fmt.Sprintf("mean of %d", len(v.named("server.delta"))))
	rep.set("store.bytes_written", float64(traced.written)/float64(len(traced.rounds)), fmt.Sprintf("data dir growth per round of %d steps", ecoRoundSteps))
	rep.set("store.write_amp", ratio(float64(traced.written), float64(traced.bytesSent)), fmt.Sprintf("÷ %d delta bytes sent", traced.bytesSent))
	rep.set("store.journal_bytes", float64(traced.journal), fmt.Sprintf("journal after a round of %d steps", ecoRoundSteps))
	tv, tp := tail(base.stepMS)
	rep.set("e2e.tail_ms", tv, fmt.Sprintf("ECO step p%g of %d (untraced)", tp, steps))
	rep.set("e2e.recovery_ms", median(base.recoveryMS), fmt.Sprintf("median of %d (untraced)", len(base.recoveryMS)))
	rep.set("e2e.error_frac", ratio(float64(base.failed), float64(base.ops)), "untraced")
	rep.set("trace.overhead_frac", median(traced.stepMS)/median(base.stepMS)-1, "traced ÷ untraced median ECO step − 1")
	printPath(rep, "op.recovery", v)
	rep.set("trace.unattributed_ms", printPath(rep, "op.eco_step", v), "mean per ECO step")
	rep.setRuntime(rt, traced.ops)
	rep.set("netlist.parse_ms", 0, "parsing happens inside the server (see store.delta_self_ms)")
	zero(rep, "netlist.coarsen_ms", "core.new_finder_ms", "core.coarse_detect_ms", "core.project_ms")
	return out, nil
}

func sumMS(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
