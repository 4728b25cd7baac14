package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// serve_mixed: a shared detection service holding many small designs.
// Two CAD clients in a closed loop mix uploads (each followed by its
// cold find), repeat finds from a hot set (cache hits), lint jobs and
// cold finds on older designs, some submitted twice at once so they
// coalesce. The registry's pin budget holds about half the designs
// uploaded in set-up, so durable lazy reload runs throughout.

// Schedule shares, in permille. They keep cold engine runs well under
// half of the clients' busy time; the report prints the measured share.
const (
	shareUpload = 1   // upload a new design, then its cold find
	shareCold   = 2   // cold find on an older design (fresh RandSeed)
	shareTwin   = 1   // the same cold find submitted by both clients
	shareLint   = 100 // lint an uploaded design
	// the rest are repeat finds from the hot set
)

const (
	serveInitial = 16 // designs uploaded in set-up
	serveHot     = 4  // of which this many have a primed find (the hot set)
	servePool    = 60 // designs generated in set-up; the schedule ends when they are all uploaded
	serveSeeds   = 12 // finder seeds per served find
)

type opKind int

const (
	opUpload opKind = iota
	opCold
	opTwin
	opLint
	opHot
)

var opNames = [...]string{"upload_find", "cold_find", "twin_find", "lint", "hot_find"}

// schedOp is one scheduled request. pick selects the older design (or
// hot key) at run time among those uploaded so far; randSeed makes a
// cold find's options new.
type schedOp struct {
	kind     opKind
	pick     uint64
	randSeed uint64
}

type serveEnv struct {
	pool    []*design
	digests []string // per pool design, once uploaded
	svc     *service
	dataDir string
	sched   []schedOp

	mu       sync.Mutex
	uploaded []int // pool indices, in upload order
	next     int   // next pool design to upload
}

// serveDesigns generates the pool: 8K-20K-cell random graphs with two
// planted blocks of 10% each, 2-6-pin nets only. Sizes step through the
// range in a fixed cycle, so every seed's hot set and upload stream
// have the same size mix and only the graphs differ. With 12 seeds
// nearly every find grows some seeds inside a block, so a cold find's
// cost varies smoothly with how many it grows there rather than with
// whether it grows any. Each find asks for one engine worker: two
// clients share two CPUs without one client's engine run starving the
// other's requests.
func serveDesigns(cfg *runCfg) ([]*design, error) {
	r := rng(cfg.seed, 2)
	out := make([]*design, scaled(servePool, cfg.scale, serveInitial+8))
	for i := range out {
		cells := scaled(8000+(i*5%13)*1000, cfg.scale, 1500)
		block := cells / 10
		d, err := plantedDesign(fmt.Sprintf("serve-%d", i), cells, []int{block, block}, r)
		if err != nil {
			return nil, err
		}
		if err := d.encode(); err != nil {
			return nil, err
		}
		d.Opt = findOptions(serveSeeds, block, cells)
		d.Opt.Workers = 1
		if i > 0 {
			d.NL = nil // the bytes are the input; the oracle parses them again
		}
		out[i] = d
	}
	return out, nil
}

// serveSchedule draws the request mix until it holds the given number
// of uploads; the twin share is emitted as two adjacent identical
// entries.
func serveSchedule(seed uint64, uploads int) []schedOp {
	r := rng(seed, 3)
	var out []schedOp
	for uploads > 0 {
		op := schedOp{pick: r.Uint64(), randSeed: 1000 + r.Uint64()%1_000_000}
		switch x := r.IntN(1000); {
		case x < shareUpload:
			op.kind = opUpload
			uploads--
		case x < shareUpload+shareCold:
			op.kind = opCold
		case x < shareUpload+shareCold+shareTwin:
			op.kind = opTwin
			out = append(out, op)
		case x < shareUpload+shareCold+shareTwin+shareLint:
			op.kind = opLint
		default:
			op.kind = opHot
		}
		out = append(out, op)
	}
	return out
}

func (e *serveEnv) close() {
	if e.svc != nil {
		e.svc.stop()
		e.svc = nil
	}
	os.RemoveAll(e.dataDir)
}

// serveSetup generates the inputs, starts the service and uploads the
// initial designs, priming the hot set's finds.
func serveSetup(ctx context.Context, cfg *runCfg, tr *tracer) (*serveEnv, error) {
	pool, err := serveDesigns(cfg)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{pool: pool, digests: make([]string, len(pool)), sched: serveSchedule(cfg.seed, len(pool)-serveInitial)}
	var pins int64
	for _, d := range pool[:serveInitial] {
		pins += int64(d.pins)
	}
	if e.dataDir, err = os.MkdirTemp(cfg.out, "serve-data-"); err != nil {
		return nil, err
	}
	if e.svc, err = startService(ctx, e.dataDir, pins/2, tr); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < serveInitial; i++ {
		if _, err := e.upload(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	for i := 0; i < serveHot; i++ {
		if _, err := e.svc.runJob(ctx, e.findReq(i, 0)); err != nil {
			e.close()
			return nil, fmt.Errorf("prime hot find: %w", err)
		}
	}
	return e, nil
}

// upload registers the next pool design and returns its index.
func (e *serveEnv) upload(ctx context.Context) (int, error) {
	e.mu.Lock()
	i := e.next
	e.next++
	e.mu.Unlock()
	if i >= len(e.pool) {
		return 0, fmt.Errorf("design pool of %d exhausted", len(e.pool))
	}
	var info api.NetlistInfo
	err := e.svc.tr.call(ctx, "client.upload", func(ctx context.Context) (err error) {
		info, err = e.svc.cl.UploadNetlist(ctx, e.pool[i].Bytes)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("upload: %w", err)
	}
	e.mu.Lock()
	e.digests[i] = info.Digest
	e.uploaded = append(e.uploaded, i)
	e.mu.Unlock()
	return i, nil
}

// older picks an uploaded design.
func (e *serveEnv) older(pick uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.uploaded[pick%uint64(len(e.uploaded))]
}

// findReq is a find on design i; randSeed 0 keeps the design's own
// options (the hot set and upload finds).
func (e *serveEnv) findReq(i int, randSeed uint64) api.JobRequest {
	opt := e.pool[i].Opt
	if randSeed != 0 {
		opt.RandSeed = randSeed
	}
	raw, _ := json.Marshal(opt) // Options is a plain tagged struct
	e.mu.Lock()
	dg := e.digests[i]
	e.mu.Unlock()
	return api.JobRequest{Kind: api.KindFind, Digest: dg, Options: raw}
}

// served is one completed job kept for the oracle.
type served struct {
	design   int
	randSeed uint64
	lint     bool
	run      jobRun
}

// load is what a measured window against the service leaves for the
// per-layer metrics.
type load struct {
	jobs        []served
	ops, failed int
	refusedN    int
	wall        time.Duration
	grew        statDelta
	diskFrom    int64
	bytesSent   int64 // request bytes the store may persist
}

// statDelta is the growth of /v1/stats counters over measured windows.
type statDelta struct {
	submitted, cacheHits, coalesced, engineRuns int64
	lintRuns, lintIncr, lazyReloads, evictions  int64
}

func (l *load) addStats(b, a api.ServerStats) {
	g := &l.grew
	g.submitted += a.Jobs.Submitted - b.Jobs.Submitted
	g.cacheHits += a.Jobs.CacheHits - b.Jobs.CacheHits
	g.coalesced += a.Jobs.CoalescedJobs - b.Jobs.CoalescedJobs
	g.engineRuns += a.Jobs.EngineRuns - b.Jobs.EngineRuns
	g.lintRuns += a.Jobs.LintRuns - b.Jobs.LintRuns
	g.lintIncr += a.Jobs.LintIncremental - b.Jobs.LintIncremental
	g.lazyReloads += a.Store.LazyReloads - b.Store.LazyReloads
	g.evictions += a.Store.Evictions - b.Store.Evictions
}

// servePhase is one measured window.
type servePhase struct {
	load
	lat        [len(opNames)][]float64 // per op kind, ms
	coldFindMS []float64               // cold finds (upload_find's find and cold_find)
	busyMS     float64                 // Σ request time over both clients, failed ones included
}

// coldShare is the part of the clients' busy time spent waiting on
// cold engine runs: upload finds, cold finds and both twins.
func (ph *servePhase) coldShare() float64 {
	return ratio(sumMS(ph.coldFindMS)+sumMS(ph.lat[opTwin]), ph.busyMS)
}

// measure runs the closed loop: nproc clients, each taking the next
// scheduled request and waiting for its reply before the next.
func (e *serveEnv) measure(ctx context.Context, seconds float64) (*servePhase, error) {
	ph := &servePhase{}
	ph.diskFrom = diskBytes(e.dataDir)
	before, err := e.svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	var idx atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				if i >= len(e.sched) {
					return
				}
				rec, err := e.do(ctx, e.sched[i])
				mu.Lock()
				ph.ops += rec.ops
				ph.bytesSent += rec.sent
				ph.busyMS += rec.ms
				if err != nil {
					ph.failed++
					if refused(err) {
						ph.refusedN++
					}
				} else {
					k := e.sched[i].kind
					ph.lat[k] = append(ph.lat[k], rec.ms)
					if k == opUpload || k == opCold {
						ph.coldFindMS = append(ph.coldFindMS, rec.findMS)
					}
					ph.jobs = append(ph.jobs, rec.jobs...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	after, err := e.svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	ph.addStats(before, after)
	return ph, nil
}

// opRecord is one scheduled request's outcome.
type opRecord struct {
	ops    int     // HTTP-level operations completed (upload and find count apart)
	ms     float64 // the whole request
	findMS float64 // the find part of an upload_find
	sent   int64   // request bytes the client sent that the store may persist
	jobs   []served
}

func (e *serveEnv) do(ctx context.Context, op schedOp) (opRecord, error) {
	var rec opRecord
	t0 := time.Now()
	err := e.svc.tr.op(ctx, opNames[op.kind], func(ctx context.Context) error {
		var design int
		var req api.JobRequest
		var rs uint64
		switch op.kind {
		case opUpload:
			i, err := e.upload(ctx)
			if err != nil {
				return err
			}
			rec.ops++
			rec.sent += int64(len(e.pool[i].Bytes))
			design, req = i, e.findReq(i, 0)
		case opCold, opTwin:
			design, rs = e.older(op.pick), op.randSeed
			req = e.findReq(design, rs)
		case opHot:
			design = int(op.pick % serveHot)
			req = e.findReq(design, 0)
		case opLint:
			design = e.older(op.pick)
			req = e.findReq(design, 0)
			req.Kind, req.Options = api.KindLint, nil
		}
		f0 := time.Now()
		run, err := e.svc.runJob(ctx, req)
		if err != nil {
			return err
		}
		rec.findMS = ms(time.Since(f0))
		rec.ops++
		rec.jobs = append(rec.jobs, served{design: design, randSeed: rs, lint: op.kind == opLint, run: run})
		return nil
	})
	rec.ms = ms(time.Since(t0))
	return rec, err
}

// oracle recomputes every served result with the facade: each distinct
// find once (cold runs, cache hits and coalesced runs must all equal
// it) and each linted design once.
func (e *serveEnv) oracle(phases ...*servePhase) (errs []string, parseMS []float64) {
	type key struct {
		design   int
		randSeed uint64
		lint     bool
	}
	want := map[key]digest{}
	parsed := map[int]*tanglefind.Netlist{}
	for _, ph := range phases {
		for _, s := range ph.jobs {
			d := e.pool[s.design]
			nl, ok := parsed[s.design]
			if !ok {
				t0 := time.Now()
				var err error
				if nl, err = tanglefind.ReadNetlist(bytes.NewReader(d.Bytes)); err != nil {
					errs = append(errs, fmt.Sprintf("%s: facade parse: %v", d.Name, err))
					continue
				}
				parseMS = append(parseMS, ms(time.Since(t0)))
				parsed[s.design] = nl
			}
			k := key{s.design, s.randSeed, s.lint}
			w, ok := want[k]
			if !ok {
				if s.lint {
					w = digestStrings(lintFingerprints(tanglefind.Lint(nl, tanglefind.LintConfig{})))
				} else {
					opt := d.Opt
					if s.randSeed != 0 {
						opt.RandSeed = s.randSeed
					}
					opt.Workers = nproc()
					res, err := tanglefind.Find(nl, opt)
					if err != nil {
						errs = append(errs, fmt.Sprintf("%s: facade Find: %v", d.Name, err))
						continue
					}
					w = digestGTLs(canonFacade(res))
				}
				want[k] = w
			}
			if err := checkDigest(fmt.Sprintf("%s: %s job %s (cached=%v)", d.Name, s.run.st.Kind, s.run.st.ID, s.run.cached), w, s.run.got); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	return errs, parseMS
}

func runServe(ctx context.Context, cfg *runCfg, rep *report) (*outcome, error) {
	rep.note("workload serve_mixed: a shared service holding many small designs; %d closed-loop clients mix uploads+cold finds, hot-set repeat finds (cache hits), lint and cold/coalesced finds on older designs; server/jobs/store carry a measurable share", nproc())
	out := &outcome{}
	var env *serveEnv
	if !cfg.trace {
		var err error
		out.setup, err = repeatSetup(func() error {
			if env != nil {
				env.close()
			}
			var err error
			env, err = serveSetup(ctx, cfg, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		if env, err = serveSetup(ctx, cfg, nil); err != nil {
			return nil, err
		}
	}
	var sizes []float64
	for _, d := range env.pool {
		sizes = append(sizes, float64(d.cells))
	}
	printStats(rep.w, "serve_mixed[0]", env.pool[0].NL)
	rep.note("input serve_mixed: %d designs generated, cells median %.0f (min %.0f max %.0f), %d uploaded in set-up, hot set %d, pin budget %d, options seeds=%d",
		len(env.pool), median(sizes), quantile(sizes, 0), quantile(sizes, 1), serveInitial, serveHot, env.svc.st.Stats().PinBudget, serveSeeds)
	rw := watchRSS()
	base, err := env.measure(ctx, cfg.window())
	rss := rw.peak()
	env.close()
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = base.ops+base.failed, base.failed
	if !cfg.trace {
		out.oracle, _ = env.oracle(base)
		rep.setSetup(out.setup)
		rep.set("peak_rss_mb", rss, "highest resident set sampled over the measured window")
		rep.set("ok_frac", 1-ratio(float64(base.failed), float64(base.ops+base.failed)), fmt.Sprintf("%d ops, %d refused", base.ops+base.failed, base.refusedN))
		rep.set("ops_per_s", float64(base.ops)/base.wall.Seconds(), fmt.Sprintf("%d ops in %.2fs", base.ops, base.wall.Seconds()))
		rep.set("primary_p50_ms", median(base.coldFindMS), fmt.Sprintf("median of %d cold finds", len(base.coldFindMS)))
		rep.set("secondary_p50_ms", median(base.lat[opHot]), fmt.Sprintf("median of %d hot-set finds", len(base.lat[opHot])))
		rep.alias("find_p50_ms", median(base.coldFindMS), "ms", fmt.Sprintf("median of %d cold finds", len(base.coldFindMS)))
		tv, tp := tail(base.coldFindMS)
		rep.alias("find_tail_ms", tv, "ms", fmt.Sprintf("p%g of %d cold finds", tp, len(base.coldFindMS)))
		rep.note("busy time: cold engine runs (upload, cold and twin finds) take %.1f%% of the clients' %.1fs busy time",
			100*base.coldShare(), base.busyMS/1000)
		for k, name := range opNames {
			xs := base.lat[k]
			rep.note("latency %s: n=%d p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f ms", name, len(xs),
				quantile(xs, 0.1), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 0.9))
		}
		return out, nil
	}

	tr := newTracer()
	tenv, err := serveSetup(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	rt := readRuntime()
	traced, err := tenv.measure(ctx, cfg.window())
	if err == nil {
		err = tenv.svc.stop()
		tenv.svc = nil
	}
	journal := fileSize(tenv.dataDir, "journal.log")
	written := diskBytes(tenv.dataDir) - traced.diskFrom
	tenv.close()
	if err != nil {
		return nil, err
	}
	out.attempted += traced.ops + traced.failed
	out.failed += traced.failed
	var parse []float64
	var errs []string
	errs, parse = env.oracle(base)
	out.oracle = append(out.oracle, errs...)
	errs, _ = tenv.oracle(traced)
	out.oracle = append(out.oracle, errs...)
	out.spans = tr
	v := analyze(tr.snapshot())

	rep.set("netlist.parse_ms", mean(parse), fmt.Sprintf("facade ReadNetlist of the served designs, mean of %d", len(parse)))
	serveLayers(rep, v, &traced.load)
	rep.set("store.bytes_written", float64(written), "data dir growth over the traced window")
	rep.set("store.write_amp", ratio(float64(written), float64(traced.bytesSent)), fmt.Sprintf("÷ %d bytes uploaded", traced.bytesSent))
	rep.set("store.journal_bytes", float64(journal), "journal size after the traced run")
	tv, tp := tail(base.coldFindMS)
	rep.set("e2e.tail_ms", tv, fmt.Sprintf("cold find p%g of %d (untraced)", tp, len(base.coldFindMS)))
	rep.set("e2e.error_frac", ratio(float64(base.failed), float64(base.ops+base.failed)), "untraced")
	rep.set("trace.overhead_frac", median(traced.coldFindMS)/median(base.coldFindMS)-1, "traced ÷ untraced median cold find − 1")
	for _, k := range []opKind{opUpload, opTwin, opLint, opHot} {
		printPath(rep, "op."+opNames[k], v)
	}
	rep.set("trace.unattributed_ms", printPath(rep, "op.cold_find", v), "mean per cold find")
	rep.setRuntime(rt, traced.ops)
	zero(rep, "netlist.coarsen_ms", "core.new_finder_ms", "core.coarse_detect_ms", "core.project_ms",
		"core.replay_ms", "core.reseed_ms", "core.incr_reuse_ratio", "store.delta_self_ms", "server.delta_ms", "e2e.recovery_ms")
	return out, nil
}

// serveLayers records the serving-path metrics shared by serve_mixed
// and eco_loop from the trace, the job results and /v1/stats deltas.
func serveLayers(rep *report, v *traceView, ph *load) {
	var queue, merge, first, hits, lintEng []float64
	var grow, score, recomb, prune, seeds, cands, stolen, busy []float64
	for _, s := range ph.jobs {
		r, stg := s.run.st.Result, s.run.st.Result.Stages
		if s.run.cached {
			hits = append(hits, ms(s.run.submit))
			continue
		}
		queue = append(queue, ms(stg["queue_wait"]))
		merge = append(merge, ms(stg["merge"]))
		first = append(first, ms(s.run.firstEvent))
		if s.lint {
			lintEng = append(lintEng, ms(stg["engine"]))
			continue
		}
		grow = append(grow, ms(stg["engine_grow"]))
		score = append(score, ms(stg["engine_score"]))
		recomb = append(recomb, ms(stg["engine_recombine"]))
		prune = append(prune, ms(stg["engine_prune"]))
		seeds = append(seeds, float64(r.SeedsRun))
		cands = append(cands, float64(r.Candidates))
		if r.Sched != nil {
			stolen = append(stolen, float64(r.Sched.SeedsStolen))
			var b int64
			for _, x := range r.Sched.WorkerBusyNS {
				b += x
			}
			busy = append(busy, ratio(float64(b)/1e6, float64(r.Sched.Workers)*r.EngineMS))
		}
	}
	n := fmt.Sprintf("mean over %d engine-run finds", len(grow))
	rep.set("core.grow_ms", mean(grow), n)
	rep.set("core.score_ms", mean(score), n)
	rep.set("core.recombine_ms", mean(recomb), n+"; includes the Phase III re-grows")
	rep.set("core.prune_ms", mean(prune), n)
	rep.set("core.seeds_run", mean(seeds), n)
	rep.set("core.candidates", mean(cands), n)
	rep.set("core.seeds_stolen", mean(stolen), n)
	rep.set("core.worker_busy_frac", mean(busy), n+"; Σ worker busy ÷ (workers × engine time)")
	rep.set("lint.engine_ms", mean(lintEng), fmt.Sprintf("mean over %d lint runs", len(lintEng)))
	g := ph.grew
	rep.set("lint.incremental_ratio", ratio(float64(g.lintIncr), float64(g.lintRuns)), fmt.Sprintf("of %d lint runs", g.lintRuns))
	rep.set("jobs.queue_wait_ms", mean(queue), fmt.Sprintf("mean over %d jobs that ran", len(queue)))
	rep.set("jobs.merge_ms", mean(merge), fmt.Sprintf("mean over %d jobs that ran", len(merge)))
	rep.set("jobs.hit_p50_ms", median(hits), fmt.Sprintf("median submit round trip of %d cache hits", len(hits)))
	rep.set("jobs.first_event_ms", mean(first), fmt.Sprintf("submit → first SSE event, mean over %d", len(first)))
	sub := float64(g.submitted)
	rep.set("jobs.cache_hit_ratio", ratio(float64(g.cacheHits), sub), fmt.Sprintf("of %.0f submitted", sub))
	rep.set("jobs.coalesced_ratio", ratio(float64(g.coalesced), sub), fmt.Sprintf("of %.0f submitted", sub))
	rep.set("jobs.engine_runs_per_job", ratio(float64(g.engineRuns), sub), fmt.Sprintf("of %.0f submitted", sub))
	rep.set("store.lazy_reloads", float64(g.lazyReloads), "/v1/stats delta")
	rep.set("store.evictions", float64(g.evictions), "/v1/stats delta")
	rep.set("store.put_blob_ms", v.meanMS("store.put_blob"), fmt.Sprintf("mean of %d", len(v.named("store.put_blob"))))
	rep.set("store.append_ms", v.meanMS("store.append"), fmt.Sprintf("mean of %d, fsync included", len(v.named("store.append"))))
	rep.set("store.get_blob_ms", v.meanMS("store.get_blob"), fmt.Sprintf("mean of %d", len(v.named("store.get_blob"))))
	rep.set("store.replay_ms", v.meanMS("store.replay"), fmt.Sprintf("mean of %d", len(v.named("store.replay"))))
	rep.set("store.ingest_self_ms", v.meanSelfMS("server.upload"), "upload handler − backend time")
	rep.set("server.upload_ms", v.meanMS("server.upload"), fmt.Sprintf("mean of %d", len(v.named("server.upload"))))
	rep.set("server.submit_ms", v.meanMS("server.submit"), fmt.Sprintf("mean of %d", len(v.named("server.submit"))))
	rep.set("server.rejected", float64(ph.refusedN), "429/5xx answers")
	rep.set("client.overhead_ms", v.clientOverheadMS(), "client round trip − handler time, mean")
}

func fileSize(dir, name string) int64 {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}
