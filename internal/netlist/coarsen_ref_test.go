package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the Builder-based coarsening step as the oracle for
// coarsenStep, which contracts straight into the coarse CSR. The two
// must agree array for array: the multilevel engine's results are only
// reproducible if every hierarchy is.

// coarsenStepRef contracts one heavy-edge matching of nl, returning the
// coarse netlist and the fine→coarse aggregation map. Deterministic
// for a fixed input.
//
// The matching accumulates clique-expansion weights (each net e
// contributes 1/(|e|-1) between every pair of its cells) directly off
// the net-side CSR, one cell at a time with an epoch-free scatter
// buffer — it never materializes the full Adjacency. Only each cell's
// best unmatched neighbor is needed, so building and sorting tens of
// millions of expanded edges (the CliqueExpand path) would be pure
// overhead; the direct walk is O(Σ_c Σ_{e∋c} |e|) with two O(cells)
// scratch arrays.
func coarsenStepRef(nl *Netlist, maxNetSize int) (*Netlist, levelMap, error) {
	n := nl.NumCells()

	// Heavy-edge matching: visit cells in ascending id order; each
	// unmatched cell grabs its heaviest unmatched neighbor, breaking
	// weight ties toward the smallest neighbor id.
	match := make([]CellID, n)
	for i := range match {
		match[i] = -1
	}
	weight := make([]float64, n) // scatter buffer, zeroed after each cell
	var touched []CellID
	for c := 0; c < n; c++ {
		if match[c] >= 0 {
			continue
		}
		touched = touched[:0]
		for _, e := range nl.CellPins(CellID(c)) {
			k := nl.NetSize(e)
			if k < 2 || (maxNetSize > 0 && k > maxNetSize) {
				continue
			}
			we := 1.0 / float64(k-1)
			for _, nb := range nl.NetPins(e) {
				if int(nb) == c || match[nb] >= 0 {
					continue
				}
				if weight[nb] == 0 {
					touched = append(touched, nb)
				}
				weight[nb] += we
			}
		}
		best, bestW := CellID(-1), 0.0
		for _, nb := range touched {
			if w := weight[nb]; w > bestW || (w == bestW && best >= 0 && nb < best) {
				best, bestW = nb, w
			}
			weight[nb] = 0
		}
		if best >= 0 {
			match[c], match[best] = best, CellID(c)
		} else {
			match[c] = CellID(c)
		}
	}

	// Assign coarse ids in ascending order of each pair's smaller fine
	// id, so coarse id order follows fine id order (keeps pin runs easy
	// to reason about and the step deterministic).
	m := levelMap{fineToCoarse: make([]CellID, n)}
	numCoarse := 0
	for c := 0; c < n; c++ {
		if int(match[c]) >= c { // c is its pair's representative
			id := CellID(numCoarse)
			numCoarse++
			m.fineToCoarse[c] = id
			if match[c] != CellID(c) {
				m.fineToCoarse[match[c]] = id
			}
		}
	}
	m.memOff = make([]int32, numCoarse+1)
	for c := 0; c < n; c++ {
		m.memOff[m.fineToCoarse[c]+1]++
	}
	for i := 0; i < numCoarse; i++ {
		m.memOff[i+1] += m.memOff[i]
	}
	m.members = make([]CellID, n)
	cursor := make([]int32, numCoarse)
	for c := 0; c < n; c++ {
		cc := m.fineToCoarse[c]
		m.members[m.memOff[cc]+cursor[cc]] = CellID(c)
		cursor[cc]++
	}

	// Build the coarse netlist with the ordinary two-pass Builder:
	// areas aggregate by summation, every fine net maps through the
	// matching (Builder dedupes pins that collapse onto one coarse
	// cell), and nets left with a single distinct coarse pin are
	// self-loops that DropDegenerateNets elides.
	var b Builder
	b.DropDegenerateNets = true
	b.AddCells(numCoarse)
	for cc := 0; cc < numCoarse; cc++ {
		area := 0.0
		for _, f := range m.members[m.memOff[cc]:m.memOff[cc+1]] {
			area += nl.CellArea(f)
		}
		b.SetCellArea(CellID(cc), area)
	}
	mapped := make([]CellID, 0, 64)
	for e := 0; e < nl.NumNets(); e++ {
		pins := nl.NetPins(NetID(e))
		mapped = mapped[:0]
		for _, c := range pins {
			mapped = append(mapped, m.fineToCoarse[c])
		}
		b.AddNet("", mapped...)
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, levelMap{}, fmt.Errorf("netlist: coarsen: %w", err)
	}
	return coarse, m, nil
}

// sameCSR reports the first difference between two netlists' incidence
// arrays and cell areas (bitwise), or nil when they are identical.
func sameCSR(got, want *Netlist) error {
	switch {
	case !slices.Equal(got.cellPinOff, want.cellPinOff):
		return fmt.Errorf("cellPinOff differs")
	case !slices.Equal(got.cellPinNet, want.cellPinNet):
		return fmt.Errorf("cellPinNet differs")
	case !slices.Equal(got.netPinOff, want.netPinOff):
		return fmt.Errorf("netPinOff differs")
	case !slices.Equal(got.netPinCell, want.netPinCell):
		return fmt.Errorf("netPinCell differs")
	case got.NumCells() != want.NumCells():
		return fmt.Errorf("%d cells, want %d", got.NumCells(), want.NumCells())
	}
	for c := 0; c < got.NumCells(); c++ {
		if a, b := got.CellArea(CellID(c)), want.CellArea(CellID(c)); math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("cell %d area %v, want %v", c, a, b)
		}
	}
	return nil
}

// sameLevelMap reports the first difference between two aggregation
// maps, or nil when they are identical.
func sameLevelMap(got, want levelMap) error {
	switch {
	case !slices.Equal(got.fineToCoarse, want.fineToCoarse):
		return fmt.Errorf("fineToCoarse differs")
	case !slices.Equal(got.memOff, want.memOff):
		return fmt.Errorf("memOff differs")
	case !slices.Equal(got.members, want.members):
		return fmt.Errorf("members differs")
	}
	return nil
}

// checkMatchesReference asserts that every step of h, and one further
// step from its coarsest level, equals coarsenStepRef on the same fine
// netlist, and that every coarse level passes Validate.
func checkMatchesReference(t testing.TB, h *Hierarchy, o CoarsenOptions) {
	t.Helper()
	maxNet := o.matchNetLimit()
	for l := 0; l < h.NumLevels(); l++ {
		fine := h.Level(l)
		want, wantMap, err := coarsenStepRef(fine, maxNet)
		if err != nil {
			t.Fatalf("level %d: reference step: %v", l, err)
		}
		var got *Netlist
		var gotMap levelMap
		if l+1 < h.NumLevels() {
			got, gotMap = h.Level(l+1), h.maps[l]
		} else {
			got, gotMap = coarsenStep(fine, maxNet)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("level %d: coarse netlist invalid: %v", l+1, err)
		}
		if err := sameCSR(got, want); err != nil {
			t.Fatalf("level %d: coarse netlist differs from the reference: %v", l+1, err)
		}
		if err := sameLevelMap(gotMap, wantMap); err != nil {
			t.Fatalf("level %d: aggregation map differs from the reference: %v", l, err)
		}
	}
}

// refCaseNetlist builds a seeded netlist for the reference comparison:
// random narrow nets with duplicate pins, a tail of nets wider than
// every tested MaxNetSize, heavy 2-pin nets between neighbours that
// collapse onto one coarse cell, non-unit areas and isolated cells at
// the end of the id space. directed marks each net's first pin as its
// driver.
func refCaseNetlist(cells, nets int, seed int64, directed bool) *Netlist {
	r := rand.New(rand.NewSource(seed))
	var b Builder
	b.DropDegenerateNets = true
	b.AddCells(cells)
	for c := 0; c < cells; c++ {
		if r.Intn(4) > 0 {
			b.SetCellArea(CellID(c), 0.25+4*r.Float64())
		}
	}
	live := cells - cells/20 // the last 5% stay isolated
	add := func(pins []CellID) {
		if directed {
			b.AddDrivenNet("", pins[:1], pins[1:]...)
		} else {
			b.AddNet("", pins...)
		}
	}
	for e := 0; e < nets; e++ {
		k := 2 + r.Intn(5)
		if r.Intn(40) == 0 {
			k = 9 + r.Intn(90) // wider than 8, some wider than 64
		}
		pins := make([]CellID, k)
		for i := range pins {
			pins[i] = CellID(r.Intn(live))
		}
		if r.Intn(8) == 0 {
			pins = append(pins, pins[0]) // duplicate pin
		}
		add(pins)
	}
	for c := 0; c+1 < live; c += 2 + r.Intn(6) {
		pair := []CellID{CellID(c), CellID(c + 1)}
		add(pair)
		add(pair)
	}
	return b.MustBuild()
}

// TestCoarsenMatchesReference holds the CSR-direct coarsening step to
// the Builder-based reference at every level, over seeded netlists and
// the three MaxNetSize regimes (no limit, the default, a tight limit).
func TestCoarsenMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, directed := range []bool{false, true} {
			nl := refCaseNetlist(1500+int(seed)*250, 3000+int(seed)*400, seed, directed)
			if nl.Directed() != directed {
				t.Fatalf("seed %d: test netlist directed=%v", seed, nl.Directed())
			}
			for _, maxNet := range []int{-1, 0, 8} {
				o := CoarsenOptions{Levels: 4, MinCells: 50, MaxNetSize: maxNet}
				h, err := BuildHierarchy(nl, o)
				if err != nil {
					t.Fatal(err)
				}
				if h.NumLevels() < 3 {
					t.Fatalf("seed %d maxNet %d: only %d levels", seed, maxNet, h.NumLevels())
				}
				checkMatchesReference(t, h, o)
			}
		}
	}
}
