// Package graph provides the graph substrate: Compressed Sparse Row storage,
// COO→CSR conversion (the host-side mirror of the paper's Algorithm 3),
// implicit edge-oracle graphs that are never materialized, deterministic
// dense random generators, and validity checking for colorings.
//
// Vertices are dense integers [0, N). Adjacency arrays store int32 vertex
// ids — the same choice that limits ECL-GC-R to 32-bit instances in the
// paper (§VII) — while offsets are int64 so edge counts may exceed 2^31.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// CSR is an undirected graph in Compressed Sparse Row form. Every edge
// {u,v} is stored twice (u→v and v→u). Neighbor lists are sorted.
type CSR struct {
	N       int
	Offsets []int64 // length N+1
	Adj     []int32 // length 2·|E|
}

// NumVertices returns N (Oracle interface).
func (g *CSR) NumVertices() int { return g.N }

// NumEdges returns the number of undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of vertex u.
func (g *CSR) Degree(u int) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the (sorted) adjacency slice of u; shared, not copied.
func (g *CSR) Neighbors(u int) []int32 {
	return g.Adj[g.Offsets[u]:g.Offsets[u+1]]
}

// HasEdge reports whether {u,v} is an edge, via binary search (Oracle
// interface).
func (g *CSR) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.N || v >= g.N {
		return false
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// MaxDegree returns the maximum degree (0 for an empty graph).
func (g *CSR) MaxDegree() int {
	m := 0
	for u := 0; u < g.N; u++ {
		if d := g.Degree(u); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the average degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.Adj)) / float64(g.N)
}

// Bytes returns the storage footprint for the memory model: live entries,
// not capacity, so pooled backing arrays charge what this graph holds.
func (g *CSR) Bytes() int64 {
	return int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
}

// Validate checks structural invariants: monotone offsets, in-range sorted
// neighbor lists, no self loops, and symmetry.
func (g *CSR) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offset endpoints [%d, %d] vs adj %d",
			g.Offsets[0], g.Offsets[g.N], len(g.Adj))
	}
	for u := 0; u < g.N; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			return fmt.Errorf("graph: offsets decrease at %d", u)
		}
		adj := g.Neighbors(u)
		for i, v := range adj {
			if v < 0 || int(v) >= g.N {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if i > 0 && adj[i-1] >= v {
				return fmt.Errorf("graph: unsorted/duplicate neighbors at %d", u)
			}
		}
	}
	// Symmetry: every arc has its reverse.
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: asymmetric edge %d→%d", u, v)
			}
		}
	}
	return nil
}

// EdgeList returns the undirected edges as (u, v) pairs with u < v, in
// lexicographic order — the canonical form used to compare conflict graphs
// across construction backends (adjacency is sorted, so walking each
// vertex's upper neighbors emits edges already ordered).
func (g *CSR) EdgeList() [][2]int32 {
	out := make([][2]int32, 0, g.NumEdges())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// FromEdges builds a CSR from an undirected edge list. Duplicate edges and
// self loops are rejected.
func FromEdges(n int, edges [][2]int32) (*CSR, error) {
	deg := make([]int64, n)
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self loop at %d", u)
		}
		deg[u]++
		deg[v]++
	}
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + deg[u]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	g := &CSR{N: n, Offsets: offsets, Adj: adj}
	g.sortAdjacency()
	// Detect duplicates after sorting.
	for u := 0; u < n; u++ {
		a := g.Neighbors(u)
		for i := 1; i < len(a); i++ {
			if a[i] == a[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, a[i])
			}
		}
	}
	return g, nil
}

func (g *CSR) sortAdjacency() {
	// slices.Sort, not sort.Slice: this runs once per vertex on every
	// COO→CSR conversion and the interface-based sort allocates a closure
	// and reflect header per call. A COO sorted by (u, v) with u < v — what
	// the conflict kernel emits — places every row already in order, so the
	// linear IsSorted check lets those rows skip the sort.
	for u := 0; u < g.N; u++ {
		if nb := g.Neighbors(u); !slices.IsSorted(nb) {
			slices.Sort(nb)
		}
	}
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabeled 0..len(vertices)-1 in the given order, plus the mapping back to
// original ids.
func (g *CSR) InducedSubgraph(vertices []int32) (*CSR, []int32) {
	inv := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		inv[v] = int32(i)
	}
	var edges [][2]int32
	for i, v := range vertices {
		for _, w := range g.Neighbors(int(v)) {
			if j, ok := inv[w]; ok && int32(i) < j {
				edges = append(edges, [2]int32{int32(i), j})
			}
		}
	}
	sub, err := FromEdges(len(vertices), edges)
	if err != nil {
		// Induced subgraphs of a valid CSR cannot violate the invariants.
		panic(fmt.Sprintf("graph: induced subgraph invalid: %v", err))
	}
	orig := append([]int32(nil), vertices...)
	return sub, orig
}
