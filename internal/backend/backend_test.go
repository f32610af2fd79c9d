package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"picasso/internal/par"
	"slices"
	"sort"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// testOracle adapts a graph.Oracle on identity ids to backend.EdgeOracle.
type testOracle struct{ o graph.Oracle }

func (t testOracle) Len() int          { return t.o.NumVertices() }
func (t testOracle) Has(i, j int) bool { return t.o.HasEdge(i, j) }

// testLists is a deterministic Lists implementation: vertex i draws L
// distinct sorted colors from [0, P) off a seeded RNG.
type testLists struct {
	n, P, L int
	flat    []int32
}

func newTestLists(n, P, L int, seed int64) *testLists {
	rng := rand.New(rand.NewSource(seed))
	tl := &testLists{n: n, P: P, L: L, flat: make([]int32, n*L)}
	perm := make([]int32, P)
	for c := range perm {
		perm[c] = int32(c)
	}
	for i := 0; i < n; i++ {
		rng.Shuffle(P, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		lst := tl.flat[i*L : (i+1)*L]
		copy(lst, perm[:L])
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
	}
	return tl
}

func (t *testLists) Len() int           { return t.n }
func (t *testLists) ListSize() int      { return t.L }
func (t *testLists) Palette() int       { return t.P }
func (t *testLists) List(i int) []int32 { return t.flat[i*t.L : (i+1)*t.L] }
func (t *testLists) Bytes() int64       { return int64(cap(t.flat)) * 4 }

// sortedEdges canonicalizes a conflict graph to a lexicographic (u<v) list.
func sortedEdges(t *testing.T, cg *ConflictGraph) [][2]int32 {
	t.Helper()
	edges := cg.G.EdgeList()
	if int64(len(edges)) != cg.Edges {
		t.Fatalf("CSR holds %d edges, ConflictGraph says %d", len(edges), cg.Edges)
	}
	return edges
}

func testBuilders(t *testing.T) map[string]ConflictBuilder {
	t.Helper()
	mk := func(name string, cfg Config) ConflictBuilder {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return map[string]ConflictBuilder{
		"sequential": mk("sequential", Config{}),
		"parallel-1": mk("parallel", Config{Workers: 1}),
		"parallel-4": mk("parallel", Config{Workers: 4}),
		"parallel-0": mk("parallel", Config{}),
		"gpu":        mk("gpu", Config{Device: gpusim.NewDevice("t", 1<<30, 4)}),
		"multigpu-1": mk("multigpu", Config{Devices: []*gpusim.Device{gpusim.NewDevice("t", 1<<30, 2)}}),
		"multigpu-3": mk("multigpu", Config{Devices: []*gpusim.Device{
			gpusim.NewDevice("t0", 1<<30, 2),
			gpusim.NewDevice("t1", 1<<30, 2),
			gpusim.NewDevice("t2", 1<<30, 2),
		}}),
	}
}

func TestBuildersMatchAllPairsReference(t *testing.T) {
	// Every builder must produce the exact edge set of the dense all-pairs
	// scan, across list shapes from sparse palettes to full-palette (every
	// pair shares a color) and graph densities from empty to complete.
	cases := []struct {
		n, P, L int
		density float64
	}{
		{1, 1, 1, 0.5},
		{2, 2, 1, 1.0},
		{60, 8, 3, 0.5},
		{120, 15, 4, 0.3},
		{120, 4, 4, 0.9}, // L == P: all pairs conflict
		{200, 25, 5, 0.0},
		{200, 25, 5, 1.0},
		{257, 40, 6, 0.5},
	}
	for ci, tc := range cases {
		o := testOracle{graph.RandomOracle{N: tc.n, P: tc.density, Seed: uint64(ci) + 7}}
		lists := newTestLists(tc.n, tc.P, tc.L, int64(ci)*13+1)
		refCG, refStats, err := ReferenceAllPairs(o, lists, nil)
		if err != nil {
			t.Fatalf("case %d: reference: %v", ci, err)
		}
		want := sortedEdges(t, refCG)
		wantPairs := int64(tc.n) * int64(tc.n-1) / 2
		if refStats.PairsTested != wantPairs {
			t.Fatalf("case %d: reference tested %d pairs, want %d", ci, refStats.PairsTested, wantPairs)
		}
		for name, b := range testBuilders(t) {
			var tr memtrack.Tracker
			cg, st, err := b.Build(context.Background(), o, lists, &tr)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			got := sortedEdges(t, cg)
			if len(got) != len(want) {
				t.Fatalf("case %d %s: %d edges, want %d", ci, name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("case %d %s: edge %d is %v, want %v", ci, name, k, got[k], want[k])
				}
			}
			// Bucketed kernels must never consult the oracle more often
			// than the dense scan, and must ask exactly once per
			// color-sharing pair.
			if st.PairsTested > refStats.PairsTested {
				t.Errorf("case %d %s: %d oracle calls exceed all-pairs %d",
					ci, name, st.PairsTested, refStats.PairsTested)
			}
			tr.Free(st.HostBytes)
			if tr.Current() != 0 {
				t.Errorf("case %d %s: leaked %d tracked bytes", ci, name, tr.Current())
			}
		}
	}
}

func TestOracleCallCountMatchesSharingPairs(t *testing.T) {
	// The kernel's promise: exactly one oracle call per pair with
	// intersecting lists, none for the rest.
	lists := newTestLists(150, 20, 4, 3)
	var want int64
	for i := 0; i < 150; i++ {
		for j := i + 1; j < 150; j++ {
			if intersectSorted(lists.List(i), lists.List(j)) {
				want++
			}
		}
	}
	o := testOracle{graph.RandomOracle{N: 150, P: 0.5, Seed: 5}}
	for name, b := range testBuilders(t) {
		_, st, err := b.Build(context.Background(), o, lists, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.PairsTested != want {
			t.Errorf("%s: %d oracle calls, want %d sharing pairs", name, st.PairsTested, want)
		}
	}
}

func TestChunkedScanPreservesLaneOrder(t *testing.T) {
	// The parallel builder's determinism rests on this: scanning rows in
	// contiguous chunks and concatenating the per-chunk lanes in chunk order
	// must reproduce the whole-range lane entry for entry (row-major,
	// ascending within a row). Compared at the kernel level, before any CSR
	// conversion.
	const n = 300
	o := testOracle{graph.RandomOracle{N: n, P: 0.5, Seed: 11}}
	lists := newTestLists(n, 40, 6, 17)
	bk := NewBuckets(lists)

	var whole rowLane
	bk.scanRows(AsBatch(o), lists, 0, n, NewScratch(n), &whole)

	var chunked rowLane
	for _, cut := range [][2]int{{0, 97}, {97, 97}, {97, 201}, {201, n}} {
		var part rowLane
		bk.scanRows(AsBatch(o), lists, cut[0], cut[1], NewScratch(n), &part)
		if part.lo != cut[0] || len(part.cnt) != cut[1]-cut[0] {
			t.Fatalf("chunk %v: lane covers rows [%d, %d)", cut, part.lo, part.lo+len(part.cnt))
		}
		chunked.cnt = append(chunked.cnt, part.cnt...)
		chunked.v = append(chunked.v, part.v...)
	}

	if len(whole.v) == 0 {
		t.Fatal("test instance produced no edges")
	}
	if whole.lo != 0 || len(whole.cnt) != n {
		t.Fatalf("whole lane covers rows [%d, %d), want [0, %d)", whole.lo, whole.lo+len(whole.cnt), n)
	}
	if !slices.Equal(whole.cnt, chunked.cnt) {
		t.Fatal("per-row hit counts differ between whole and chunked scans")
	}
	if len(whole.v) != len(chunked.v) {
		t.Fatalf("edge counts differ: %d vs %d", len(whole.v), len(chunked.v))
	}
	for k := range whole.v {
		if whole.v[k] != chunked.v[k] {
			t.Fatalf("lane entry %d differs: %d vs %d", k, whole.v[k], chunked.v[k])
		}
	}
}

func TestLanesToCSRMatchesCOO(t *testing.T) {
	// The host builders' lane conversion must give exactly what COO.ToCSR
	// gives on the same edges, byte for byte, for every way rows can be cut
	// into lanes. One degree scratch and one CSR are reused across cases, so
	// the pooled path sees dirty, oversized buffers.
	rng := rand.New(rand.NewSource(23))
	deg := make([]int64, 256)
	for k := range deg {
		deg[k] = int64(k*7 + 3)
	}
	var pooled graph.CSR
	for _, tc := range []struct {
		name    string
		n       int
		density float64
		cuts    []int // interior lane boundaries; repeats make zero-row lanes
	}{
		{"single lane", 200, 0.3, nil},
		{"even split", 200, 0.3, []int{50, 100, 150}},
		{"zero-row lanes", 120, 0.4, []int{0, 0, 60, 60, 60, 120}},
		{"more workers than rows", 3, 1.0, []int{0, 1, 1, 2, 3, 3}},
		{"no edges", 90, 0, []int{30, 60}},
		{"rows with no hits", 150, 0.02, []int{10, 11, 149}},
		{"one vertex", 1, 1.0, []int{0, 1}},
		{"empty graph", 0, 1.0, []int{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coo := &graph.COO{N: tc.n}
			bounds := append(append([]int{0}, tc.cuts...), tc.n)
			var lanes []*rowLane
			for b := 0; b+1 < len(bounds); b++ {
				ln := &rowLane{}
				ln.reset(bounds[b], bounds[b+1])
				for i := bounds[b]; i < bounds[b+1]; i++ {
					start := len(ln.v)
					for j := i + 1; j < tc.n; j++ {
						if rng.Float64() < tc.density {
							ln.v = append(ln.v, int32(j))
							coo.Append(int32(i), int32(j))
						}
					}
					ln.cnt[i-bounds[b]] = int32(len(ln.v) - start)
				}
				lanes = append(lanes, ln)
			}
			want, err := coo.ToCSR(coo.CountDegrees())
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*graph.CSR{
				lanesToCSR(lanes, tc.n, nil, nil),
				lanesToCSR(lanes, tc.n, deg, &pooled),
			} {
				if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
					t.Fatalf("lanes CSR (offsets %v, adj %v) differs from COO CSR (offsets %v, adj %v)",
						got.Offsets, got.Adj, want.Offsets, want.Adj)
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestHostBuildersKeepNoMergedCOO(t *testing.T) {
	// The host builders scatter their lanes straight into the CSR: no build
	// on a warm arena may grow the merged edge list, and the lanes hold each
	// edge once.
	o := testOracle{graph.RandomOracle{N: 400, P: 0.5, Seed: 8}}
	lists := newTestLists(400, 50, 6, 8)
	for _, name := range []string{"sequential", "parallel"} {
		arena := NewArena()
		b, err := New(name, Config{Workers: 3, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			cg, _, err := b.Build(context.Background(), o, lists, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cg.Edges == 0 {
				t.Fatalf("%s: test instance produced no edges", name)
			}
			if cap(arena.coo.U) != 0 || cap(arena.coo.V) != 0 {
				t.Fatalf("%s round %d: merged COO holds capacity %d+%d",
					name, round, cap(arena.coo.U), cap(arena.coo.V))
			}
			var laneEdges int64
			for _, ln := range arena.lanes {
				laneEdges += int64(len(ln.edges.v))
			}
			if laneEdges != cg.Edges {
				t.Fatalf("%s round %d: lanes hold %d edges, graph has %d", name, round, laneEdges, cg.Edges)
			}
		}
	}
}

func TestRegistrySelection(t *testing.T) {
	dev := gpusim.NewDevice("d", 1<<20, 1)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"", Config{Workers: 1}, "sequential"},
		{"auto", Config{Workers: 1}, "sequential"},
		{"", Config{}, "parallel"},
		{"", Config{Workers: 8}, "parallel"},
		{"", Config{Device: dev}, "gpu"},
		{"", Config{Devices: []*gpusim.Device{dev, dev}}, "multigpu"},
		{"sequential", Config{Workers: 64}, "sequential"}, // explicit beats auto
	}
	for _, tc := range cases {
		b, err := New(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("New(%q, %+v): %v", tc.name, tc.cfg, err)
		}
		if b.Name() != tc.want {
			t.Errorf("New(%q, %+v) = %s, want %s", tc.name, tc.cfg, b.Name(), tc.want)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("bogus", Config{}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := New("gpu", Config{}); err == nil {
		t.Error("gpu backend without a device accepted")
	}
	if _, err := New("multigpu", Config{}); err == nil {
		t.Error("multigpu backend without devices accepted")
	}
}

func TestNamesContainsBuiltins(t *testing.T) {
	names := Names()
	if names[0] != "auto" {
		t.Fatalf("Names()[0] = %q, want auto", names[0])
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range []string{"sequential", "parallel", "gpu", "multigpu"} {
		if !have[n] {
			t.Errorf("Names() missing %q: %v", n, names)
		}
	}
}

func TestDeviceOOMPropagates(t *testing.T) {
	o := testOracle{graph.RandomOracle{N: 400, P: 0.9, Seed: 3}}
	lists := newTestLists(400, 4, 4, 9) // full palette: every pair conflicts
	for _, mk := range []func() ConflictBuilder{
		func() ConflictBuilder { return gpuBuilder{dev: gpusim.NewDevice("tiny", 2048, 2)} },
		func() ConflictBuilder {
			return multiBuilder{devs: []*gpusim.Device{
				gpusim.NewDevice("tiny0", 2048, 2), gpusim.NewDevice("tiny1", 2048, 2),
			}}
		},
	} {
		b := mk()
		_, _, err := b.Build(context.Background(), o, lists, nil)
		if err == nil {
			t.Fatalf("%s: tiny budget accepted", b.Name())
		}
		var oom *gpusim.ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Fatalf("%s: error is %T: %v", b.Name(), err, err)
		}
	}
}

func TestBucketsInvariants(t *testing.T) {
	lists := newTestLists(120, 16, 5, 21)
	bk := NewBuckets(lists)
	if got := int64(len(bk.Vtx)); got != 120*5 {
		t.Fatalf("index holds %d entries, want %d", got, 120*5)
	}
	// Each bucket ascending; membership mirrors the lists exactly.
	member := map[[2]int32]bool{}
	for c := 0; c < bk.P; c++ {
		bucket := bk.Vtx[bk.Off[c]:bk.Off[c+1]]
		for k, v := range bucket {
			if k > 0 && bucket[k-1] >= v {
				t.Fatalf("bucket %d not ascending: %v", c, bucket)
			}
			member[[2]int32{int32(c), v}] = true
		}
	}
	for i := 0; i < 120; i++ {
		for _, c := range lists.List(i) {
			if !member[[2]int32{c, int32(i)}] {
				t.Fatalf("vertex %d missing from bucket %d", i, c)
			}
		}
	}
	// Row weights sum to the total pair work.
	var wsum int64
	for _, w := range bk.RowWeight {
		wsum += w
	}
	if pw := bk.PairWork(); wsum != pw {
		t.Fatalf("row weights sum to %d, PairWork says %d", wsum, pw)
	}
}

func TestCollectRowAscending(t *testing.T) {
	// Rows dense and sparse in their span must give every sharing upper
	// partner once, ascending, and leave the bitset clear for the next row.
	for _, c := range []struct {
		name    string
		n, P, L int
	}{
		{"dense", 300, 20, 4},
		{"sparse", 4000, 6000, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			lists := newTestLists(c.n, c.P, c.L, 9)
			bk := NewBuckets(lists)
			s := NewScratch(c.n)
			for i := 0; i < c.n; i++ {
				var want []int32
				for j := i + 1; j < c.n; j++ {
					if intersectSorted(lists.List(i), lists.List(j)) {
						want = append(want, int32(j))
					}
				}
				got := bk.CollectRow(lists, i, s)
				if !slices.Equal(got, want) {
					t.Fatalf("row %d: got %v, want %v", i, got, want)
				}
			}
			for _, w := range s.seen {
				if w != 0 {
					t.Fatal("seen-bitset not restored to all-zero")
				}
			}
		})
	}
}

func TestCollectRowDeduplicates(t *testing.T) {
	// Craft heavy overlap: tiny palette, long lists — most pairs share many
	// colors but must surface exactly once.
	lists := newTestLists(40, 6, 4, 2)
	bk := NewBuckets(lists)
	s := NewScratch(40)
	for i := 0; i < 40; i++ {
		seen := map[int32]int{}
		for _, j := range bk.CollectRow(lists, i, s) {
			seen[j]++
		}
		for j, count := range seen {
			if count != 1 {
				t.Fatalf("row %d: vertex %d surfaced %d times", i, j, count)
			}
			if int(j) <= i {
				t.Fatalf("row %d surfaced non-upper vertex %d", i, j)
			}
			if !intersectSorted(lists.List(i), lists.List(int(j))) {
				t.Fatalf("row %d surfaced non-sharing vertex %d", i, j)
			}
		}
		// Completeness: every sharing pair appears.
		for j := i + 1; j < 40; j++ {
			if intersectSorted(lists.List(i), lists.List(j)) {
				if _, ok := seen[int32(j)]; !ok {
					t.Fatalf("row %d missed sharing vertex %d", i, j)
				}
			}
		}
	}
}

func TestWeightedBoundsBalance(t *testing.T) {
	for _, m := range []int{10, 101, 1000} {
		for _, d := range []int{1, 2, 3, 7} {
			// Triangular weights reproduce the historical all-pairs split.
			weights := make([]int64, m)
			for i := range weights {
				weights[i] = int64(m - 1 - i)
			}
			bounds := par.WeightedBounds(weights, d)
			if len(bounds) != d+1 || bounds[0] != 0 || bounds[d] != m {
				t.Fatalf("m=%d d=%d: bounds %v", m, d, bounds)
			}
			total := int64(m) * int64(m-1) / 2
			for band := 0; band < d; band++ {
				if bounds[band] > bounds[band+1] {
					t.Fatalf("m=%d d=%d: bounds not monotone: %v", m, d, bounds)
				}
				pairs := bandPairs(m, bounds[band], bounds[band+1])
				fair := total / int64(d)
				if fair > int64(m) && pairs > 2*fair+int64(m) {
					t.Errorf("m=%d d=%d band %d: %d pairs vs fair %d", m, d, band, pairs, fair)
				}
			}
		}
	}
}

func TestBandPairs(t *testing.T) {
	// Closed form against the naive sum, and full coverage across bands.
	for _, m := range []int{1, 2, 57, 200} {
		for lo := 0; lo <= m; lo += 13 {
			for hi := lo; hi <= m; hi += 17 {
				var want int64
				for i := lo; i < hi; i++ {
					want += int64(m - 1 - i)
				}
				if got := bandPairs(m, lo, hi); got != want {
					t.Fatalf("bandPairs(%d,%d,%d) = %d, want %d", m, lo, hi, got, want)
				}
			}
		}
	}
	m := 57
	weights := make([]int64, m)
	for i := range weights {
		weights[i] = int64(m - 1 - i)
	}
	bounds := par.WeightedBounds(weights, 4)
	var sum int64
	for b := 0; b < 4; b++ {
		sum += bandPairs(m, bounds[b], bounds[b+1])
	}
	if want := int64(m) * int64(m-1) / 2; sum != want {
		t.Fatalf("bands cover %d pairs, want %d", sum, want)
	}
}

func TestPairWorkBeatsAllPairsAtPaperRegime(t *testing.T) {
	// At the paper's operating point (P = 12.5% of n, L = 2·log10 n) the
	// bucket bound Σ|b_c|² concentrates near the L²/P collision rate —
	// 5.1% of m(m−1)/2 at n = 10000 — which is the asymptotic claim the
	// benchmark quantifies in wall-clock. Allow 50% slack for sampling
	// variance.
	n := 10000
	P, L := n/8, 8
	lists := newTestLists(n, P, L, 5)
	bk := NewBuckets(lists)
	allPairs := int64(n) * int64(n-1) / 2
	bound := int64(float64(allPairs) * 1.5 * float64(L*L) / float64(P))
	if pw := bk.PairWork(); pw > bound {
		t.Errorf("pair work %d exceeds 1.5·L²/P bound %d (all pairs %d)", pw, bound, allPairs)
	}
}

func ExampleNew() {
	b, _ := New("", Config{Workers: 1})
	fmt.Println(b.Name())
	// Output: sequential
}
