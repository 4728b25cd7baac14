package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	"tanglefind"
)

// design is one generated input: the .tfb bytes the program sees plus
// the ground truth and options the benchmark keeps to itself.
type design struct {
	Name   string
	Bytes  []byte
	NL     *tanglefind.Netlist
	Blocks [][]tanglefind.CellID // planted GTLs, ids valid in NL
	Opt    tanglefind.Options    // the find options this design is run with
	cells  int
	pins   int
}

// rng returns the workload's deterministic generator for one stream;
// distinct streams of one seed never share draws.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// scaled shrinks a paper-scale size for tiny test runs, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// plantedDesign builds a Table-1-style random graph with planted
// blocks. The generator seed is drawn from r, so one workload seed
// fixes every design it makes.
func plantedDesign(name string, cells int, blocks []int, r *rand.Rand) (*design, error) {
	spec := tanglefind.RandomGraphSpec{Cells: cells, Seed: r.Uint64()}
	for _, b := range blocks {
		spec.Blocks = append(spec.Blocks, tanglefind.BlockSpec{Size: b})
	}
	rg, err := tanglefind.NewRandomGraph(spec)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	d := &design{Name: name, NL: rg.Netlist, Blocks: rg.Blocks}
	if err := clusterIDs(d, r); err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	return d, nil
}

// clusterIDs renumbers the cells so that each planted block occupies
// one contiguous id range at a seeded position among the background
// cells, as a synthesis tool that emits a module's cells together
// would. The generator scatters blocks over the id space; the engine
// draws one seed per equal slice of that space, so scattered blocks
// receive a Poisson-distributed number of seeds and a design's cost
// swings with that luck. Contiguous blocks receive the same number of
// seeds in every design of one shape.
func clusterIDs(d *design, r *rand.Rand) error {
	n := d.NL.NumCells()
	inBlock := make([]bool, n)
	for _, b := range d.Blocks {
		for _, c := range b {
			inBlock[c] = true
		}
	}
	var background []tanglefind.CellID
	for c := 0; c < n; c++ {
		if !inBlock[c] {
			background = append(background, tanglefind.CellID(c))
		}
	}
	at := make([]int, len(d.Blocks)) // background cells placed before each block
	for i := range at {
		at[i] = r.IntN(len(background) + 1)
	}
	sort.Ints(at)
	newID := make([]tanglefind.CellID, n)
	next, bi := tanglefind.CellID(0), 0
	place := func(c tanglefind.CellID) {
		newID[c] = next
		next++
	}
	for i := 0; i <= len(background); i++ {
		for ; bi < len(at) && at[bi] == i; bi++ {
			for _, c := range d.Blocks[bi] {
				place(c)
			}
		}
		if i < len(background) {
			place(background[i])
		}
	}
	var b tanglefind.Builder
	b.AddCells(n)
	for e := 0; e < d.NL.NumNets(); e++ {
		pins := d.NL.NetPins(tanglefind.NetID(e))
		mapped := make([]tanglefind.CellID, len(pins))
		for i, c := range pins {
			mapped[i] = newID[c]
		}
		b.AddNet("", mapped...)
	}
	nl, err := b.Build()
	if err != nil {
		return err
	}
	for _, blk := range d.Blocks {
		for i, c := range blk {
			blk[i] = newID[c]
		}
	}
	d.NL = nl
	return nil
}

// addFanoutTail appends nets of 16 to 48 pins over background cells
// only, so the planted blocks keep their known cut. The random-graph
// generator emits only 2-6-pin nets; real netlists have a tail of
// clock, reset and select fanouts, and the engine's wide-net paths
// engage only on them.
func addFanoutTail(d *design, nets int, r *rand.Rand) error {
	planted := make(map[tanglefind.CellID]bool)
	for _, b := range d.Blocks {
		for _, c := range b {
			planted[c] = true
		}
	}
	var background []tanglefind.CellID
	for c := 0; c < d.NL.NumCells(); c++ {
		if !planted[tanglefind.CellID(c)] {
			background = append(background, tanglefind.CellID(c))
		}
	}
	delta := &tanglefind.Delta{}
	for i := 0; i < nets; i++ {
		k := 16 + r.IntN(33)
		seen := make(map[tanglefind.CellID]bool, k)
		pins := make([]tanglefind.CellID, 0, k)
		for len(pins) < k {
			c := background[r.IntN(len(background))]
			if !seen[c] {
				seen[c] = true
				pins = append(pins, c)
			}
		}
		delta.AddNets = append(delta.AddNets, tanglefind.NewNet{Cells: pins})
	}
	child, _, err := delta.Apply(d.NL)
	if err != nil {
		return fmt.Errorf("fanout tail on %s: %w", d.Name, err)
	}
	d.NL = child // appending nets never renumbers cells: Blocks stay valid
	return nil
}

// encode serializes the design to the .tfb bytes the program reads.
func (d *design) encode() error {
	var buf bytes.Buffer
	if err := d.NL.WriteBinary(&buf); err != nil {
		return fmt.Errorf("encode %s: %w", d.Name, err)
	}
	d.Bytes = buf.Bytes()
	d.cells, d.pins = d.NL.NumCells(), d.NL.NumPins()
	return nil
}

// findOptions sizes the finder like the repo's experiments: the
// paper's defaults with the ordering cap at twice the largest planted
// block (room for Phase II's interior minimum, at most half the
// netlist).
func findOptions(seeds, maxBlock, cells int) tanglefind.Options {
	opt := tanglefind.DefaultOptions()
	opt.Seeds = seeds
	z := 2 * maxBlock
	if z < 1000 {
		z = 1000
	}
	if z > cells/2-1 {
		z = cells/2 - 1
	}
	opt.MaxOrderLen = z
	return opt
}

// siteEdits builds a chain of localized, pin-preserving ECO edits
// against nl: each step rewires two nets of one background cell,
// moving one pin to a nearby background cell. Steps touch disjoint
// nets, so every step's delta is valid against the netlist left by the
// steps before it, and the union of steps 1..k is itself one delta.
func siteEdits(nl *tanglefind.Netlist, blocks [][]tanglefind.CellID, steps int, r *rand.Rand) []*tanglefind.Delta {
	planted := make(map[tanglefind.CellID]bool)
	for _, b := range blocks {
		for _, c := range b {
			planted[c] = true
		}
	}
	usedNet := make(map[tanglefind.NetID]bool)
	n := nl.NumCells()
	out := make([]*tanglefind.Delta, 0, steps)
	for tries := 0; len(out) < steps && tries < 50*steps; tries++ {
		site := tanglefind.CellID(r.IntN(n))
		nets := nl.CellPins(site)
		if planted[site] || len(nets) < 2 || usedNet[nets[0]] || usedNet[nets[1]] {
			continue
		}
		d := &tanglefind.Delta{}
		for _, e := range nets[:2] {
			pins := nl.NetPins(e)
			onNet := make(map[tanglefind.CellID]bool, len(pins))
			for _, c := range pins {
				onNet[c] = true
			}
			for i := 1; i < n; i++ {
				c := tanglefind.CellID((int(site) + i*97) % n)
				if !onNet[c] && !planted[c] {
					keep := append([]tanglefind.CellID(nil), pins[1:]...)
					d.SetNets = append(d.SetNets, tanglefind.NetEdit{Net: e, Cells: append(keep, c)})
					break
				}
			}
		}
		if len(d.SetNets) != 2 {
			continue
		}
		usedNet[nets[0]], usedNet[nets[1]] = true, true
		out = append(out, d)
	}
	return out
}

// mergeDeltas concatenates the SetNets of edits over disjoint nets.
func mergeDeltas(ds []*tanglefind.Delta) *tanglefind.Delta {
	out := &tanglefind.Delta{}
	for _, d := range ds {
		out.SetNets = append(out.SetNets, d.SetNets...)
	}
	return out
}

// printStats writes one input's size and net-degree histogram.
func printStats(w io.Writer, label string, nl *tanglefind.Netlist) {
	hist := map[string]int{}
	keys := []string{"2", "3", "4", "5", "6", "7-15", "16-31", "32-63", "64+"}
	for e := 0; e < nl.NumNets(); e++ {
		k := nl.NetSize(tanglefind.NetID(e))
		switch {
		case k <= 6:
			hist[fmt.Sprint(k)]++
		case k < 16:
			hist["7-15"]++
		case k < 32:
			hist["16-31"]++
		case k < 64:
			hist["32-63"]++
		default:
			hist["64+"]++
		}
	}
	fmt.Fprintf(w, "input %s: cells=%d nets=%d pins=%d net-degree", label, nl.NumCells(), nl.NumNets(), nl.NumPins())
	for _, k := range keys {
		if hist[k] > 0 {
			fmt.Fprintf(w, " %s:%d", k, hist[k])
		}
	}
	fmt.Fprintln(w)
}

// sortedCopy returns the ids sorted ascending (GTL member order is not
// part of the result's identity).
func sortedCopy(ids []tanglefind.CellID) []tanglefind.CellID {
	out := append([]tanglefind.CellID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
