// The equitable coloring variant: same palette machinery, two additions.
// While coloring, every candidate pick is biased toward the feasible color
// whose class is currently smallest (classBalance, consulted at all four
// pick sites — the direct picks in finishIter and both conflict-graph
// colorers), so classes grow in lockstep instead of first-come-first-fat.
// After the run, balanceColors merges classes with no cross edges and moves
// vertices from the largest classes into the smallest until the sizes are
// within ±1 or the graph refuses (a vertex can only move where it has no
// neighbor), keeping the coloring proper at every step.
package core

import (
	"math/rand"

	"picasso/internal/graph"
)

// classBalance tracks the live size of every global color class during one
// engine unit. It is rebuilt at unit start from the frozen frontier
// [0, fixedEnd) — the only colors a unit may read — and incremented at
// pick time, never in setColor: finishIter copies the conflict colorer's
// assignments through setColor after the colorer already counted them, so
// counting there would double. The table is O(colors
// used) and deliberately outside the memory tracker, like the RNG and the
// per-iteration stats.
type classBalance struct {
	counts []int32 // indexed by global color
}

// newBalance builds the unit's class-size table, or returns nil when the
// run is not equitable. Only colors below fixedEnd are counted (uncolored
// entries — a refinement round's moved set — are skipped).
func (e *engine) newBalance() *classBalance {
	if e.opts.Variant != VariantEquitable {
		return nil
	}
	cb := &classBalance{counts: make([]int32, e.ceil)}
	for v := 0; v < e.fixedEnd; v++ {
		if c := e.colors[v]; c != graph.Uncolored {
			cb.note(c)
		}
	}
	return cb
}

// count returns the current size of global color class c.
func (cb *classBalance) count(c int32) int32 {
	if int(c) >= len(cb.counts) {
		return 0
	}
	return cb.counts[c]
}

// note records one new member of global color class c.
func (cb *classBalance) note(c int32) {
	if int(c) >= len(cb.counts) {
		grown := make([]int32, int(c)+1)
		copy(grown, cb.counts)
		cb.counts = grown
	}
	cb.counts[c]++
}

// pickSlot returns the index into lst of the candidate whose global class
// (base + color) is currently smallest, skipping slots the forbidden mask
// (when non-nil, at offset off) rules out; ties break uniformly at random.
// Returns -1 when every slot is forbidden.
func (cb *classBalance) pickSlot(lst []int32, base int32, forbidden []bool, off int, rng *rand.Rand) int {
	pick, ties := -1, 0
	var best int32
	for k, c := range lst {
		if forbidden != nil && forbidden[off+k] {
			continue
		}
		cnt := cb.count(base + c)
		switch {
		case pick == -1 || cnt < best:
			pick, best, ties = k, cnt, 1
		case cnt == best:
			ties++
			if rng.Intn(ties) == 0 {
				pick = k
			}
		}
	}
	return pick
}

// balanceWork bounds the oracle calls the post-pass may spend, so balancing
// a coloring never rivals the run that produced it. When the budget runs
// out the coloring is simply left as balanced as it got — still proper.
const balanceWork = 1 << 25

// balanceColors rebalances a complete proper coloring in place toward
// equitable class sizes, preserving properness throughout. Two phases:
// merge every pair of classes with no cross edges (smallest classes first —
// on a graph whose classes partition cleanly, such as a complete
// multipartite one, this alone reaches the partition), then move vertices
// from the largest classes into the smallest wherever the moved vertex has
// no neighbor in its destination. Deterministic: classes are visited in
// (size, id) order and vertices ascending.
func balanceColors(o graph.Oracle, colors graph.Coloring) {
	colors.Normalize()
	C := int(colors.MaxColor()) + 1
	if C < 2 {
		return
	}
	members := make([][]int32, C)
	for v, c := range colors {
		members[c] = append(members[c], int32(v))
	}
	budget := int64(balanceWork)

	// bySize returns the class ids ordered by (size, id) ascending.
	bySize := func() []int {
		ord := make([]int, 0, C)
		for c := 0; c < C; c++ {
			if members[c] != nil {
				ord = append(ord, c)
			}
		}
		for i := 1; i < len(ord); i++ {
			for j := i; j > 0; j-- {
				a, b := ord[j-1], ord[j]
				if len(members[a]) < len(members[b]) || (len(members[a]) == len(members[b]) && a < b) {
					break
				}
				ord[j-1], ord[j] = ord[j], ord[j-1]
			}
		}
		return ord
	}

	// noCross reports whether no edge joins classes a and b, spending
	// |a|·|b| oracle calls at worst (early exit on the first edge).
	noCross := func(a, b []int32) bool {
		for _, u := range a {
			for _, v := range b {
				budget--
				if o.HasEdge(int(u), int(v)) {
					return false
				}
			}
		}
		return true
	}

	// Phase 1 — merge. Repeated passes over the classes smallest-first:
	// fold a class into the first later class it shares no edge with.
	for merged := true; merged && budget > 0; {
		merged = false
		ord := bySize()
		for i := 0; i < len(ord) && budget > 0; i++ {
			a := ord[i]
			if members[a] == nil {
				continue
			}
			for j := i + 1; j < len(ord); j++ {
				b := ord[j]
				if members[b] == nil || !noCross(members[a], members[b]) {
					continue
				}
				for _, v := range members[a] {
					colors[v] = int32(b)
				}
				members[b] = append(members[b], members[a]...)
				members[a] = nil
				merged = true
				break
			}
		}
	}

	// Phase 2 — move. While the spread exceeds 1, shift one vertex from a
	// largest class into a smallest class that has no edge to it; stop when
	// no such vertex exists anywhere (the graph refuses) or budget is out.
	for budget > 0 {
		ord := bySize()
		if len(ord) < 2 {
			break
		}
		minSize := len(members[ord[0]])
		maxSize := len(members[ord[len(ord)-1]])
		if maxSize-minSize <= 1 {
			break
		}
		moved := false
	search:
		for i := len(ord) - 1; i > 0; i-- {
			from := ord[i]
			if len(members[from]) <= minSize+1 {
				break
			}
			for j := 0; j < i; j++ {
				to := ord[j]
				if len(members[to]) != minSize {
					break
				}
				for vi, v := range members[from] {
					ok := true
					for _, u := range members[to] {
						budget--
						if o.HasEdge(int(v), int(u)) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					colors[v] = int32(to)
					members[to] = append(members[to], v)
					members[from] = append(members[from][:vi], members[from][vi+1:]...)
					moved = true
					break search
				}
			}
		}
		if !moved {
			break
		}
	}
	colors.Normalize()
}
