package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"tanglefind"
	"tanglefind/api"
)

// gtl is a detected group in comparable form: sorted members plus the
// integer and score fields, compared exactly (the engine is
// deterministic and JSON round-trips float64 losslessly).
type gtl struct {
	members     []tanglefind.CellID
	cut, pins   int
	ngtls, gtsd float64
}

func canonFacade(r *tanglefind.Result) []gtl {
	out := make([]gtl, len(r.GTLs))
	for i, g := range r.GTLs {
		out[i] = gtl{sortedCopy(g.Members), g.Cut, g.Pins, g.NGTLS, g.GTLSD}
	}
	return out
}

func canonWire(r *api.JobResult) []gtl {
	out := make([]gtl, len(r.GTLs))
	for i, g := range r.GTLs {
		out[i] = gtl{sortedCopy(g.Members), g.Cut, g.Pins, g.NGTLS, g.GTLSD}
	}
	return out
}

// Recovery bounds: Table 1's, which the repo's experiments hold every
// flat run to, and the multilevel pipeline's own contract
// (TestMultilevelRecoversPlantedBlocks): at least 90% of the planted
// cells, summed over blocks, recovered by each block's best-matching
// GTL.
const (
	maxMissPct    = 2.0
	maxOverPct    = 5.0
	minMLRecovery = 0.9
)

// bestOverlap returns the GTL sharing the most cells with the block
// (given as a membership set), and that count; -1 and 0 when none
// overlaps.
func bestOverlap(in map[tanglefind.CellID]bool, gs []tanglefind.GTL) (best, hit int) {
	best = -1
	for i, g := range gs {
		h := 0
		for _, c := range g.Members {
			if in[c] {
				h++
			}
		}
		if h > hit {
			best, hit = i, h
		}
	}
	return best, hit
}

// plantedOracle checks that planted blocks are recovered. It counts
// every block the run grew a seed inside (a multilevel run reports each
// coarse seed as a cell of the original netlist): the paper's random
// seeds can miss a 1000-cell block entirely, and that is sampling, not
// a wrong answer. The larger block always receives a seed, so a run
// that seeded none has lost its seeds. A flat run is held to the
// Table 1 bounds on each seeded block, a multilevel run to its
// pipeline's contract over all of them.
func plantedOracle(label string, d *design, r *tanglefind.Result) []string {
	var errs []string
	planted, recovered := 0, 0
	for bi, block := range d.Blocks {
		in := make(map[tanglefind.CellID]bool, len(block))
		for _, c := range block {
			in[c] = true
		}
		seeded := false
		for _, s := range r.Seeds {
			seeded = seeded || in[s.Seed]
		}
		if !seeded {
			continue
		}
		best, hit := bestOverlap(in, r.GTLs)
		planted += len(block)
		recovered += hit
		if r.Levels != nil {
			continue
		}
		miss, over := 100.0, 0.0
		if best >= 0 {
			miss = 100 * float64(len(block)-hit) / float64(len(block))
			over = 100 * float64(r.GTLs[best].Size()-hit) / float64(len(block))
		}
		if miss > maxMissPct || over > maxOverPct {
			errs = append(errs, fmt.Sprintf("%s: planted block %d (%d cells) recovered with miss %.2f%% over %.2f%% (bounds %.0f%%/%.0f%%)",
				label, bi, len(block), miss, over, maxMissPct, maxOverPct))
		}
	}
	switch frac := ratio(float64(recovered), float64(planted)); {
	case planted == 0:
		errs = append(errs, fmt.Sprintf("%s: none of the run's %d seeds landed in a planted block", label, len(r.Seeds)))
	case r.Levels != nil && frac < minMLRecovery:
		errs = append(errs, fmt.Sprintf("%s: recovered %d of the %d cells of the seeded planted blocks (%.1f%%, bound %.0f%%)",
			label, recovered, planted, 100*frac, 100*minMLRecovery))
	}
	return errs
}

// lintFingerprints is a lint report's identity: its sorted findings.
func lintFingerprints(r *tanglefind.LintReport) []string {
	out := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		out[i] = f.Fingerprint
	}
	return out
}

// digest is a result's identity in a few bytes, so the benchmark can
// keep every served result for the oracle without keeping its members.
type digest struct {
	n   int // GTLs or lint findings
	sum [sha256.Size]byte
}

func digestGTLs(gs []gtl) digest {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, g := range gs {
		put(uint64(len(g.members)))
		for _, c := range g.members {
			put(uint64(c))
		}
		put(uint64(g.cut))
		put(uint64(g.pins))
		put(math.Float64bits(g.ngtls))
		put(math.Float64bits(g.gtsd))
	}
	d := digest{n: len(gs)}
	h.Sum(d.sum[:0])
	return d
}

func digestStrings(ss []string) digest {
	h := sha256.New()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	d := digest{n: len(ss)}
	h.Sum(d.sum[:0])
	return d
}

// resultDigest is the identity of a served job's result.
func resultDigest(r *api.JobResult) digest {
	if r.Lint != nil {
		return digestStrings(lintFingerprints(r.Lint))
	}
	return digestGTLs(canonWire(r))
}

// checkDigest reports a served result that differs from the facade's.
func checkDigest(what string, want, got digest) error {
	if want != got {
		return fmt.Errorf("%s: served result (%d items) differs from the facade's (%d items)", what, got.n, want.n)
	}
	return nil
}
