package core

import (
	"sync/atomic"
	"time"

	"tanglefind/internal/telemetry"
)

// Stage names used in Result.Stages. Flat runs report the first four;
// multilevel runs add StageCoarseDetect/StageProject, plus StageCoarsen
// when the run waited for its hierarchy (absent when it was cached),
// and incremental runs add StageReplay/StageReseed.
const (
	StageGrow         = "grow"
	StageScore        = "score"
	StageRecombine    = "recombine"
	StagePrune        = "prune"
	StageCoarsen      = "coarsen"
	StageCoarseDetect = "coarse_detect"
	StageProject      = "project"
	StageReplay       = "replay"
	StageReseed       = "reseed"
)

// The per-seed pipeline phases accumulated on each worker's grower.
// Kept as a fixed array of plain int64 nanoseconds so the hot path
// pays one time.Now pair per phase and no map or atomic traffic; the
// totals are harvested once per worker when the pool drains.
const (
	phaseGrow = iota
	phaseScore
	phaseRecombine
	nPhases
)

var phaseNames = [nPhases]string{StageGrow, StageScore, StageRecombine}

// phaseAcc is a per-phase nanosecond accumulator.
type phaseAcc [nPhases]int64

// stages converts the accumulator to the exported map form, skipping
// phases that never ran.
func (p *phaseAcc) stages() telemetry.StageTimings {
	t := telemetry.StageTimings{}
	for i, ns := range p {
		if ns > 0 {
			t[phaseNames[i]] = time.Duration(ns)
		}
	}
	return t
}

// stageTimingOff disables per-seed stage accounting (and the
// per-exec busy/steal clocks in the scheduler) when set. Stored
// inverted so the zero value means "timing on" — the default.
// Growers and steal groups capture it once per run, so the seed loop
// reads a plain bool.
var stageTimingOff atomic.Bool

// SetStageTiming switches the engine's per-seed stage accounting
// (Result.Stages phase entries, SchedStats worker busy/steal clocks)
// on or off, returning the previous setting. Per-run stamps (prune,
// coarsen, coarse_detect, project) are always recorded — they cost a
// handful of clock reads per run. The toggle exists for overhead
// measurement (BenchmarkFind_Instrumented); it never affects detection
// results.
func SetStageTiming(enabled bool) (prev bool) {
	return !stageTimingOff.Swap(!enabled)
}

// StageTimingEnabled reports whether per-seed stage accounting is on.
func StageTimingEnabled() bool { return !stageTimingOff.Load() }

// addCoarsen records on res the time its run waited for the
// hierarchy; a cached hierarchy (no wait) leaves the stage absent.
func addCoarsen(res *Result, wait time.Duration) {
	if res != nil && wait > 0 {
		res.Stages.Add(StageCoarsen, wait)
	}
}

// stamp folds the time elapsed since `from` into phase p and returns
// the new timestamp, chaining consecutive phase boundaries through
// one clock read each.
func (g *grower) stamp(p int, from time.Time) time.Time {
	now := time.Now()
	g.phases[p] += int64(now.Sub(from))
	return now
}
