package backend

import (
	"picasso/internal/graph"
	"picasso/internal/grow"
	"picasso/internal/memtrack"
)

// rowLane is one host worker's share of the conflict edges in row-major,
// upper-triangular form: rows [lo, lo+len(cnt)) in ascending order, row
// lo+r owning the next cnt[r] entries of v — its partners j > lo+r,
// ascending. An edge's row is implied by its position, so a lane holds
// 4 bytes per edge (plus 4 per row) where a COO holds 8.
type rowLane struct {
	lo  int
	cnt []int32
	v   []int32
}

// reset empties the lane for rows [lo, hi). Every cnt entry is overwritten
// by the scan that fills the lane.
func (ln *rowLane) reset(lo, hi int) {
	ln.lo = lo
	ln.cnt = grow.Slice(ln.cnt, hi-lo)
	ln.v = ln.v[:0]
}

// bytes returns the lane footprint for the memory model: live entries, not
// the possibly arena-pooled capacity.
func (ln *rowLane) bytes() int64 {
	return int64(len(ln.cnt))*4 + int64(len(ln.v))*4
}

// finishLanes converts the host builders' lanes to CSR and fills in the
// host accounting, with the tracker shape of finishCOOIn: the lanes are
// charged for the duration of the conversion, the resulting CSR stays
// charged (Stats.HostBytes) for the caller to free. The degree scratch and
// the CSR backing come from the arena (nil = fresh allocations).
func finishLanes(a *Arena, lanes []*rowLane, n int, tr *memtrack.Tracker, st Stats) (*ConflictGraph, Stats) {
	var laneBytes, edges int64
	for _, ln := range lanes {
		laneBytes += ln.bytes()
		edges += int64(len(ln.v))
	}
	release := tr.Scoped(laneBytes)
	gc := lanesToCSR(lanes, n, a.degBuf(n), a.csrBuf())
	release()
	tr.Alloc(gc.Bytes())
	st.HostBytes = gc.Bytes()
	return &ConflictGraph{G: gc, Edges: edges}, st
}

// lanesToCSR builds the n-vertex CSR of the lanes' edges into g (nil =
// allocate), consuming deg as degree and cursor scratch. The lanes must
// cover distinct rows in ascending order. Rows are then scattered in
// ascending order, so each adjacency row receives its lower neighbors
// ascending (from earlier rows) before its own upper partners ascending:
// the CSR comes out sorted without a sort or a check, and byte-identical to
// COO.ToCSR of the same edges.
func lanesToCSR(lanes []*rowLane, n int, deg []int64, g *graph.CSR) *graph.CSR {
	deg = grow.Zeroed(deg, n)
	for _, ln := range lanes {
		for r, c := range ln.cnt {
			deg[ln.lo+r] += int64(c)
		}
		for _, j := range ln.v {
			deg[j]++
		}
	}
	if g == nil {
		g = &graph.CSR{}
	}
	g.N = n
	g.Offsets = graph.ExclusiveSumInto(deg, grow.Slice(g.Offsets, n+1))
	g.Adj = grow.Slice(g.Adj, int(g.Offsets[n]))
	cursor := deg
	copy(cursor, g.Offsets[:n])
	for _, ln := range lanes {
		v := ln.v
		for r, c := range ln.cnt {
			i, row := int32(ln.lo+r), v[:c]
			copy(g.Adj[cursor[i]:], row)
			cursor[i] += int64(c)
			for _, j := range row {
				g.Adj[cursor[j]] = i
				cursor[j]++
			}
			v = v[c:]
		}
	}
	return g
}
