package backend

import (
	"picasso/internal/graph"
	"picasso/internal/grow"
)

// Arena pools the working storage of conflict-graph construction — the
// bucket index, per-worker kernel scratch and row-major edge lanes, device
// band buffers, and the conflict CSR backing — so a steady-state caller (the
// iteration loop, a service worker recoloring job after job) reuses one set
// of allocations instead of re-making them every build. Buffers grow to the
// largest build seen and are retained, except the device bands' worst-case
// edge mirrors, whose retention is bounded (see maxRetainedBandEdges).
//
// An Arena is NOT safe for concurrent use: hold one per goroutine (the
// coloring service keeps one per pool worker). Builds running on one arena
// may still fan out internally — worker lanes and device bands are reserved
// serially before the parallel section, so each goroutine touches only its
// own lane. Every builder accepts a nil *Arena and falls back to fresh
// per-build allocations.
type Arena struct {
	bk    *Buckets
	fb    *FixedBuckets // streaming fixed-color index (fixed.go)
	cnt   []int64       // bucket counting/cursor scratch (palette-sized)
	lanes []workerLane
	bands []*bandState
	calls []int64
	coo   graph.COO // multigpu's merged device edge list
	deg   []int64
	csr   graph.CSR
}

// NewArena returns an empty arena; storage grows on first use.
func NewArena() *Arena { return &Arena{} }

// workerLane is one CPU worker's private kernel state.
type workerLane struct {
	s     *Scratch
	edges rowLane
}

// bandState is one device band's private kernel state: per-"SM" scratches
// plus the band's unordered edge list and degree counters.
type bandState struct {
	scratches []*Scratch
	u, v      []int32
	deg       []int64
}

// reserveLanes grows the CPU worker-lane table to count lanes. Must be
// called serially before concurrent lane access.
func (a *Arena) reserveLanes(count int) {
	if a == nil {
		return
	}
	for len(a.lanes) < count {
		a.lanes = append(a.lanes, workerLane{})
	}
}

// scratch returns worker lane w's kernel scratch, grown for n vertices.
// With a nil arena it allocates a fresh Scratch, matching the historical
// per-build behavior.
func (a *Arena) scratch(w, n int) *Scratch {
	if a == nil {
		return NewScratch(n)
	}
	ln := &a.lanes[w]
	if ln.s == nil {
		ln.s = NewScratch(n)
	} else {
		ln.s.grow(n)
	}
	return ln.s
}

// lane returns worker lane w's edge storage (scanRows resets it). The lane
// aliases arena storage, so its growth is retained for the next build.
func (a *Arena) lane(w int) *rowLane {
	if a == nil {
		return &rowLane{}
	}
	return &a.lanes[w].edges
}

// mainCOO returns the multigpu builder's merge edge buffer, emptied for n
// vertices.
func (a *Arena) mainCOO(n int) *graph.COO {
	if a == nil {
		return &graph.COO{N: n}
	}
	a.coo.N = n
	a.coo.U = a.coo.U[:0]
	a.coo.V = a.coo.V[:0]
	return &a.coo
}

// callsBuf returns a zeroed per-worker call-count buffer.
func (a *Arena) callsBuf(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	a.calls = grow.Zeroed(a.calls, n)
	return a.calls
}

// degBuf returns the degree scratch for CSR conversion (contents garbage;
// the conversion zeroes it).
func (a *Arena) degBuf(n int) []int64 {
	if a == nil {
		return nil
	}
	a.deg = grow.Slice(a.deg, n)
	return a.deg
}

// csrBuf returns the pooled conflict-CSR target, or nil (= allocate fresh)
// without an arena. The CSR handed back by a build stays valid until the
// next build on the same arena — exactly the iteration-at-a-time lifetime
// the coloring core gives it.
func (a *Arena) csrBuf() *graph.CSR {
	if a == nil {
		return nil
	}
	return &a.csr
}

// band returns device band i's pooled state, reserving lanes up to i. Must
// be called serially (before the per-device goroutines launch); with a nil
// arena it returns a nil *bandState whose methods allocate fresh buffers.
func (a *Arena) band(i int) *bandState {
	if a == nil {
		return nil
	}
	for len(a.bands) <= i {
		a.bands = append(a.bands, &bandState{})
	}
	return a.bands[i]
}

// reserveScratches grows the band's per-worker scratch table. Serial-only.
func (b *bandState) reserveScratches(count, n int) {
	if b == nil {
		return
	}
	for len(b.scratches) < count {
		b.scratches = append(b.scratches, NewScratch(n))
	}
	for _, s := range b.scratches[:count] {
		s.grow(n)
	}
}

// scratch returns band worker w's scratch. Workers beyond the reserved
// table (or any worker, when pooling is off) get a fresh Scratch — the
// reservation is an optimization, never a correctness requirement, so the
// kernel cannot index out of bounds or share scratch if the launcher's
// worker-count policy ever drifts from the reservation's estimate.
// Concurrent calls with distinct w are safe: nothing mutates the table
// between reserveScratches and the end of the launch.
func (b *bandState) scratch(w, n int) *Scratch {
	if b == nil || w >= len(b.scratches) {
		return NewScratch(n)
	}
	return b.scratches[w]
}

// maxRetainedBandEdges bounds the per-band edge-mirror capacity an arena
// keeps between builds (entries per half; 8M ≈ 64 MB per band across both
// halves). deviceScan sizes these buffers at the band's worst-case
// all-pairs bound clamped by device memory — far above the edges actually
// produced — so retaining them unconditionally would pin that worst case in
// every long-lived worker. Larger requests are served fresh and left to the
// collector, exactly the pre-arena behavior.
const maxRetainedBandEdges = 8 << 20

// edgeBufs returns the band's unordered edge list halves, grown to capEdges.
func (b *bandState) edgeBufs(capEdges int64) ([]int32, []int32) {
	if b == nil || capEdges > maxRetainedBandEdges {
		return make([]int32, capEdges), make([]int32, capEdges)
	}
	b.u = grow.Slice(b.u, int(capEdges))
	b.v = grow.Slice(b.v, int(capEdges))
	return b.u, b.v
}

// degCounters returns the band's zeroed per-vertex degree counters.
func (b *bandState) degCounters(n int) []int64 {
	if b == nil {
		return make([]int64, n)
	}
	b.deg = grow.Zeroed(b.deg, n)
	return b.deg
}
