package graph

import "picasso/internal/par"

// Oracle is an implicit graph: vertices are [0, NumVertices()) and edges are
// answered on demand. This is the representation Picasso colors — the full
// edge set is never stored (paper §IV-A: "we are not provided with the
// graph ... we derive the edges dynamically").
type Oracle interface {
	NumVertices() int
	HasEdge(u, v int) bool
}

// RowOracle is optionally implemented by oracles whose edge test can be
// batched per row: HasEdgeRow answers HasEdge(u, vs[k]) into out[k] for every
// candidate at once. Implementations hoist u's vertex data a single time and
// stream the candidates over it, which is markedly cheaper than len(vs)
// independent HasEdge calls when the per-vertex data is packed (e.g. the
// Pauli-slab anticommutation words). len(out) must be at least len(vs).
type RowOracle interface {
	Oracle
	HasEdgeRow(u int, vs []int32, out []bool)
}

// SubViewer is optionally implemented by oracles that can compact a subset
// of their vertices into a standalone oracle over dense local ids
// [0, len(vertices)): SubView(vertices)[i, j] must equal
// HasEdge(vertices[i], vertices[j]). The iteration loop uses it to rebuild
// its shrinking active set as contiguous vertex data, eliminating the
// indirection table from the edge-test hot path. The reuse argument, when it
// is a previous SubView result, lets implementations recycle that view's
// storage; pass nil otherwise.
type SubViewer interface {
	Oracle
	SubView(vertices []int32, reuse Oracle) Oracle
}

// RangeViewer is optionally implemented by oracles that can expose a
// contiguous vertex range [lo, hi) as a standalone oracle over local ids
// [0, hi−lo) *sharing* the underlying storage: RangeView(lo, hi) must
// answer HasEdge(i, j) exactly as the parent answers
// HasEdge(lo+i, lo+j), with no copying. The streaming engine uses it for
// the first iteration over each shard — the shard's vertex data is a
// sub-slice of the packed slab, so a shard view costs nothing (contrast
// SubViewer, which compacts an arbitrary subset by copying).
type RangeViewer interface {
	Oracle
	RangeView(lo, hi int) Oracle
}

// Complement is the complement view of an oracle: edges become non-edges
// and vice versa (self loops stay absent). Used to express "clique
// partition of G = coloring of G'" (paper §II-B).
type Complement struct{ G Oracle }

// NumVertices returns the vertex count of the underlying graph.
func (c Complement) NumVertices() int { return c.G.NumVertices() }

// HasEdge reports the complement adjacency.
func (c Complement) HasEdge(u, v int) bool {
	return u != v && !c.G.HasEdge(u, v)
}

// RandomOracle is a deterministic Erdős–Rényi G(n, p) graph computed from a
// hash: no storage at all, ideal for exercising the memory-efficient paths
// on arbitrarily dense inputs.
type RandomOracle struct {
	N    int
	P    float64 // edge probability in [0, 1]
	Seed uint64
}

// NumVertices returns n.
func (r RandomOracle) NumVertices() int { return r.N }

// HasEdge hashes the unordered pair; identical for (u,v) and (v,u).
func (r RandomOracle) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= r.N || v >= r.N {
		return false
	}
	return r.pair(int32(u), int32(v))
}

// pair is HasEdge's hash test on two distinct in-range ids.
func (r RandomOracle) pair(u, v int32) bool {
	if u > v {
		u, v = v, u
	}
	h := mix64(r.Seed ^ uint64(u)<<32 ^ uint64(v))
	return float64(h>>11)/float64(1<<53) < r.P
}

// HasEdgeRow answers a whole candidate row (RowOracle) with HasEdge's hash,
// without a call per pair.
func (r RandomOracle) HasEdgeRow(u int, vs []int32, out []bool) {
	for k, v := range vs {
		out[k] = int(v) != u && r.pair(int32(u), v)
	}
}

// SubView restricts the oracle to vertices over local ids (SubViewer). The
// view copies only the id table: the edges are hashes, not storage.
func (r RandomOracle) SubView(vertices []int32, reuse Oracle) Oracle {
	sv, ok := reuse.(*randomSubView)
	if !ok {
		sv = &randomSubView{}
	}
	sv.r, sv.ids = r, append(sv.ids[:0], vertices...)
	return sv
}

var (
	_ RowOracle = RandomOracle{}
	_ SubViewer = RandomOracle{}
	_ RowOracle = (*randomSubView)(nil)
)

// randomSubView is a RandomOracle over the local ids of a vertex subset:
// local pair (i, j) is the parent's pair (ids[i], ids[j]).
type randomSubView struct {
	r   RandomOracle
	ids []int32
}

func (s *randomSubView) NumVertices() int { return len(s.ids) }

func (s *randomSubView) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(s.ids) || v >= len(s.ids) {
		return false
	}
	return s.r.pair(s.ids[u], s.ids[v])
}

func (s *randomSubView) HasEdgeRow(u int, vs []int32, out []bool) {
	a := s.ids[u]
	for k, v := range vs {
		out[k] = int(v) != u && s.r.pair(a, s.ids[v])
	}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Materialize enumerates all pairs of the oracle and builds an explicit CSR.
// This is exactly what the memory-hungry baselines must do (ColPack,
// Kokkos-EB, ECL-GC-R all "require loading the entire graph into memory",
// §VII) — quadratic time, Θ(|E|) space.
func Materialize(o Oracle) *CSR {
	n := o.NumVertices()
	deg := make([]int64, n)
	parallelFor(n, func(u int) {
		d := int64(0)
		for v := 0; v < n; v++ {
			if o.HasEdge(u, v) {
				d++
			}
		}
		deg[u] = d
	})
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + deg[u]
	}
	adj := make([]int32, offsets[n])
	parallelFor(n, func(u int) {
		c := offsets[u]
		for v := 0; v < n; v++ {
			if o.HasEdge(u, v) {
				adj[c] = int32(v)
				c++
			}
		}
	})
	return &CSR{N: n, Offsets: offsets, Adj: adj}
}

// CountEdges counts the edges of an oracle in parallel without storing them.
func CountEdges(o Oracle) int64 {
	n := o.NumVertices()
	counts := make([]int64, n)
	parallelFor(n, func(u int) {
		c := int64(0)
		for v := u + 1; v < n; v++ {
			if o.HasEdge(u, v) {
				c++
			}
		}
		counts[u] = c
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// Degrees computes every vertex degree of an oracle in parallel.
func Degrees(o Oracle) []int {
	n := o.NumVertices()
	deg := make([]int, n)
	parallelFor(n, func(u int) {
		d := 0
		for v := 0; v < n; v++ {
			if o.HasEdge(u, v) {
				d++
			}
		}
		deg[u] = d
	})
	return deg
}

// parallelFor runs f(i) for i in [0, n) across default workers.
func parallelFor(n int, f func(i int)) {
	par.ForN(0, n, f)
}
