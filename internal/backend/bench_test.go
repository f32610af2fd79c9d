package backend

import (
	"context"
	"fmt"
	"testing"

	"picasso/internal/graph"
)

// BenchmarkConflictBuild is the before/after comparison of the refactor:
// the historical all-pairs scan (sharesColor per pair) against the
// palette-bucket inverted-index kernel, on a dense random oracle at the
// paper's Normal operating point (P = 12.5% of n, L = 8). The bucketed
// builders touch only the ~L²/P ≈ 5% of pairs that share a candidate color,
// so they must beat the dense scan by a wide margin at n ≥ 10k. They run on
// a warm arena, as a service worker does, and report the edge storage that
// arena retains between builds per conflict edge (B/edge).
func BenchmarkConflictBuild(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		o := testOracle{graph.RandomOracle{N: n, P: 0.5, Seed: 42}}
		lists := newTestLists(n, n/8, 8, 9)
		run := func(name string, arena *Arena, build func() (*ConflictGraph, Stats, error)) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				var edges, calls int64
				for i := 0; i < b.N; i++ {
					cg, st, err := build()
					if err != nil {
						b.Fatal(err)
					}
					edges, calls = cg.Edges, st.PairsTested
				}
				b.ReportMetric(float64(edges), "edges")
				b.ReportMetric(float64(calls), "pairs-tested")
				if arena != nil && edges > 0 {
					b.ReportMetric(float64(retainedEdgeBytes(arena))/float64(edges), "B/edge")
				}
			})
		}
		run("allpairs", nil, func() (*ConflictGraph, Stats, error) {
			return ReferenceAllPairs(o, lists, nil)
		})
		seqArena, parArena := NewArena(), NewArena()
		run("bucketed", seqArena, func() (*ConflictGraph, Stats, error) {
			return seqBuilder{arena: seqArena}.Build(context.Background(), o, lists, nil)
		})
		run("bucketed-parallel", parArena, func() (*ConflictGraph, Stats, error) {
			return parBuilder{arena: parArena}.Build(context.Background(), o, lists, nil)
		})
	}
}

// retainedEdgeBytes sums the capacities an arena keeps for conflict edges
// between builds: the worker lanes, the merged edge list and the CSR.
func retainedEdgeBytes(a *Arena) int64 {
	var bytes int64
	for _, ln := range a.lanes {
		bytes += int64(cap(ln.edges.cnt)+cap(ln.edges.v)) * 4
	}
	bytes += int64(cap(a.coo.U)+cap(a.coo.V)) * 4
	return bytes + int64(cap(a.csr.Offsets))*8 + int64(cap(a.csr.Adj))*4
}
