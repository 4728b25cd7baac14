package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

func stagesWorkload(t testing.TB) (*generate.RandomGraph, Options) {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 400}},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 600
	return rg, opt
}

// TestFlatRunStages locks the contract the serving layer builds on:
// every completed run carries a non-nil Stages map with the flat
// pipeline's phases, and the breakdown survives a JSON round-trip.
func TestFlatRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages == nil {
		t.Fatal("completed run has nil Stages")
	}
	for _, stage := range []string{StageGrow, StageScore, StageRecombine, StagePrune} {
		if res.Stages[stage] <= 0 {
			t.Errorf("stage %q missing or non-positive: %v", stage, res.Stages)
		}
	}
	for _, stage := range []string{StageCoarsen, StageCoarseDetect, StageProject, StageReplay, StageReseed} {
		if _, ok := res.Stages[stage]; ok {
			t.Errorf("flat run reports multilevel/incremental stage %q: %v", stage, res.Stages)
		}
	}
	data, err := json.Marshal(res.Stages)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]float64
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("stages JSON %s: %v", data, err)
	}
	if back[StageGrow] <= 0 {
		t.Errorf("marshaled grow ms = %v", back[StageGrow])
	}
	if res.Sched == nil || len(res.Sched.WorkerBusyNS) == 0 {
		t.Fatalf("sched missing worker busy clocks: %+v", res.Sched)
	}
	var busy int64
	for _, ns := range res.Sched.WorkerBusyNS {
		busy += ns
	}
	if busy <= 0 {
		t.Errorf("total worker busy time = %d", busy)
	}
}

// TestMultilevelRunStages: the descent adds coarse_detect and project
// on top of the coarse run's per-seed phases, and the run that built
// the hierarchy adds coarsen; a run that finds it cached does not.
func TestMultilevelRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.Levels = 2
	opt.MinCoarseCells = 1024
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageGrow, StagePrune, StageCoarsen, StageCoarseDetect, StageProject} {
		if res.Stages[stage] <= 0 {
			t.Errorf("stage %q missing: %v", stage, res.Stages)
		}
	}
	again, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.Stages[StageCoarsen]; ok {
		t.Errorf("run on a cached hierarchy reports coarsen: %v", again.Stages)
	}
	if again.Stages[StageProject] <= 0 {
		t.Errorf("cached-hierarchy run missing project: %v", again.Stages)
	}
}

// TestMultilevelShardStages: the shard that built the hierarchy
// carries coarsen, and Merge folds it into the merged result.
func TestMultilevelShardStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.Levels = 2
	opt.MinCoarseCells = 1024
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mid := opt.Seeds / 2
	s1, err := f.FindShard(ctx, opt, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.FindShard(ctx, opt, mid, opt.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stages()[StageCoarsen] <= 0 {
		t.Errorf("first shard missing coarsen: %v", s1.Stages())
	}
	if _, ok := s2.Stages()[StageCoarsen]; ok {
		t.Errorf("second shard reports coarsen on a cached hierarchy: %v", s2.Stages())
	}
	res, err := f.Merge(opt, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stages[StageCoarsen], s1.Stages()[StageCoarsen]; got != want {
		t.Errorf("merged coarsen = %v, want the first shard's %v", got, want)
	}
}

// TestConcurrentMultilevelCoarsenStage: runs racing on a fresh engine
// share one hierarchy build; each run that waited for it reports
// coarsen, the build's own run among them, and results are unaffected.
func TestConcurrentMultilevelCoarsenStage(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.Levels = 2
	opt.MinCoarseCells = 1024
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = f.Find(context.Background(), opt)
		}()
	}
	wg.Wait()
	waited := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res.Stages[StageCoarsen] > 0 {
			waited++
		}
		if len(res.GTLs) != len(results[0].GTLs) {
			t.Fatalf("run %d: %d GTLs, run 0 found %d", i, len(res.GTLs), len(results[0].GTLs))
		}
		for k := range res.GTLs {
			if res.GTLs[k].Score != results[0].GTLs[k].Score || res.GTLs[k].Size() != results[0].GTLs[k].Size() {
				t.Fatalf("run %d: GTL %d differs from run 0", i, k)
			}
		}
	}
	if waited == 0 {
		t.Errorf("no concurrent run reports coarsen; the building run must")
	}
}

// TestIncrementalRunStages: a replaying run reports the replay/reseed
// wall-time split next to the usual phases.
func TestIncrementalRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.RecordIncremental = true
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	e := netlist.NetID(nl.NumNets() - 1)
	cells := append([]netlist.CellID{0, 1}, nl.NetPins(e)...)
	d := &netlist.Delta{SetNets: []netlist.NetEdit{{Net: e, Cells: cells[:2]}}}
	patched, eff, err := d.Apply(nl)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := fi.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental == nil || incr.Incremental.FullFallback {
		t.Fatalf("expected a replaying run: %+v", incr.Incremental)
	}
	if incr.Incremental.ReusedSeeds > 0 && incr.Stages[StageReplay] <= 0 {
		t.Errorf("replayed %d seeds but no replay stage: %v", incr.Incremental.ReusedSeeds, incr.Stages)
	}
	if incr.Incremental.RerunSeeds > 0 && incr.Stages[StageReseed] <= 0 {
		t.Errorf("reran %d seeds but no reseed stage: %v", incr.Incremental.RerunSeeds, incr.Stages)
	}
	if incr.Stages[StagePrune] <= 0 {
		t.Errorf("incremental run missing prune stage: %v", incr.Stages)
	}
}

// TestShardMergeStages: merged shards sum their per-seed phases into
// the final result, and ShardResult exposes its own breakdown.
func TestShardMergeStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mid := opt.Seeds / 2
	s1, err := f.FindShard(ctx, opt, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.FindShard(ctx, opt, mid, opt.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stages()[StageGrow] <= 0 {
		t.Errorf("shard stages missing grow: %v", s1.Stages())
	}
	res, err := f.Merge(opt, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	want := s1.Stages()[StageGrow] + s2.Stages()[StageGrow]
	if res.Stages[StageGrow] != want {
		t.Errorf("merged grow = %v, want %v", res.Stages[StageGrow], want)
	}
	if res.Stages[StagePrune] <= 0 {
		t.Errorf("merged result missing prune: %v", res.Stages)
	}
}

// TestSetStageTiming: disabling per-seed accounting removes the phase
// entries and worker clocks while per-run stamps (prune) survive —
// and never changes detection results.
func TestSetStageTiming(t *testing.T) {
	rg, opt := stagesWorkload(t)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	on, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}

	if prev := SetStageTiming(false); !prev {
		t.Error("default stage timing should be on")
	}
	defer SetStageTiming(true)
	if StageTimingEnabled() {
		t.Error("StageTimingEnabled after SetStageTiming(false)")
	}
	off, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageGrow, StageScore, StageRecombine} {
		if _, ok := off.Stages[stage]; ok {
			t.Errorf("per-seed stage %q present with timing off: %v", stage, off.Stages)
		}
	}
	if off.Stages == nil || off.Stages[StagePrune] <= 0 {
		t.Errorf("per-run prune stamp should survive the toggle: %v", off.Stages)
	}
	if off.Sched == nil || len(off.Sched.WorkerBusyNS) != 0 {
		t.Errorf("worker clocks present with timing off: %+v", off.Sched)
	}

	if len(on.GTLs) != len(off.GTLs) {
		t.Fatalf("timing toggle changed results: %d vs %d GTLs", len(on.GTLs), len(off.GTLs))
	}
	for i := range on.GTLs {
		if on.GTLs[i].Score != off.GTLs[i].Score || on.GTLs[i].Size() != off.GTLs[i].Size() {
			t.Fatalf("timing toggle changed GTL %d", i)
		}
	}
}
