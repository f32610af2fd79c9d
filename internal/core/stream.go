// Streaming partitioned coloring: color the vertex set in shards of size B
// against the fixed colors of everything colored before, so iteration-scoped
// memory follows the shard, not the graph. Each shard runs the full staged
// engine (engine.go) over its own palette windows starting at color 0 —
// colors are *reused* across shards, and cross-shard properness comes from
// the fixed-color pass pruning any candidate a frozen neighbor already
// holds. Under a memory budget the shard size is derived from a worst-case
// estimate, then resized from the measured per-vertex footprint after every
// shard — growing into unused headroom, halving after a crossing — so a run
// degrades gracefully instead of OOMing. Between shards the engine is at a
// serializable boundary: runs checkpoint, cancel, resume, and extend there.
package core

import (
	"context"
	"fmt"

	"picasso/internal/backend"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// minShard floors every derived shard size: below this the per-shard fixed
// costs dominate and further shrinking cannot help a budget.
const minShard = 256

// defaultShardSize picks the knob-free streaming shard size for n remaining
// vertices.
func defaultShardSize(n int) int {
	b := n / 8
	if b < 1024 {
		b = 1024
	}
	if b > 1<<16 {
		b = 1 << 16
	}
	return b
}

// Stream colors the oracle in shards (Options.ShardSize, or a size derived
// from Options.MemoryBudgetBytes) and returns the same Result a one-shot
// Color would: a proper coloring of the whole oracle. Live iteration-scoped
// memory scales with the shard size instead of n; the coloring differs from
// Color's (shards reuse palette windows against the frozen frontier) but is
// proper by the same guarantees. ctx cancels at any stage boundary;
// Options.Checkpoint observes every shard boundary with a resumable
// RunState.
func Stream(ctx context.Context, o graph.Oracle, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return streamRun(ctx, o, &opts, nil, nil)
}

// Extend colors the vertices [len(prev), n) of the oracle against the
// frozen coloring prev of the first len(prev) vertices, without recoloring
// them: the append operation. prev must be a complete proper coloring of
// the prefix (its colors are trusted, not re-verified). The returned
// Result's Colors covers all n vertices — prev's entries bit-identical —
// and its statistics cover only the new work.
func Extend(ctx context.Context, o graph.Oracle, prev graph.Coloring, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := o.NumVertices()
	if len(prev) > n {
		return nil, fmt.Errorf("core: Extend: %d fixed colors for %d vertices", len(prev), n)
	}
	for v, c := range prev {
		if c == graph.Uncolored {
			return nil, fmt.Errorf("core: Extend: fixed vertex %d is uncolored", v)
		}
	}
	return streamRun(ctx, o, &opts, prev, nil)
}

// ResumeStream continues a streamed run from a shard-boundary RunState
// (Resumable() must hold) captured by Options.Checkpoint. With the same
// oracle and Options and a fixed Options.ShardSize the continuation is
// deterministic: every remaining shard colors exactly as it would have in
// the uninterrupted run, because shard randomness derives from (Seed, shard
// start) alone. Budget-derived shard sizes may adapt differently after a
// resume (the new tracker has its own peak history), moving shard
// boundaries — the coloring stays proper either way.
func ResumeStream(ctx context.Context, o graph.Oracle, opts Options, st *RunState) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("core: ResumeStream: nil run state")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := st.validate(o.NumVertices()); err != nil {
		return nil, err
	}
	return streamRun(ctx, o, &opts, nil, st)
}

// streamRun is the shared shard loop behind Stream, Extend and
// ResumeStream: prev freezes a prefix coloring (Extend), st restores a
// checkpoint; at most one is non-nil.
func streamRun(ctx context.Context, o graph.Oracle, opts *Options, prev graph.Coloring, st *RunState) (*Result, error) {
	// Unconditional: 0 disarms, so a budget left on a reused tracker by an
	// earlier run cannot leak into this one's shard sizing or verdict. The
	// peak baseline drops to the caller's still-live bytes for the same
	// reason: a stale lifetime peak would both poison OverBudget and blind
	// nextShard's new-evidence test (peak <= peakBefore forever).
	opts.Tracker.SetBudget(opts.MemoryBudgetBytes)
	opts.Tracker.ResetPeak()
	e := newEngine(ctx, o, opts, true)
	// Equitable runs rebalance in finish — except Extend, whose contract is
	// that the frozen prefix comes back bit-identical.
	e.balanceOnFinish = opts.Variant == VariantEquitable && prev == nil
	switch {
	case prev != nil:
		copy(e.colors[:len(prev)], prev)
		for _, c := range prev {
			if c >= e.ceil {
				e.ceil = c + 1
			}
		}
		e.fixedEnd, e.nextStart = len(prev), len(prev)
	case st != nil:
		copy(e.colors, st.Colors)
		// Trust the snapshot's ceiling only upward: recompute the floor from
		// the colors themselves (at a shard boundary ceil is exactly
		// max+1), so a zeroed/stale ceil field in a deserialized snapshot
		// cannot make a later fallback mint colors that collide with the
		// frozen frontier.
		e.ceil = st.Ceil
		for _, c := range st.Colors {
			if c >= e.ceil {
				e.ceil = c + 1
			}
		}
		e.fixedEnd, e.nextStart = st.NextStart, st.NextStart
		e.shardIdx = st.Shards
		e.res.Shards = st.Shards
		e.res.ResumedShards = st.Shards
		e.res.Fallback = st.Fallback
		e.priorExceeded = st.BudgetExceeded // a violation is never silent, even across a resume
	}

	baseline := e.tr.Current()
	shard := opts.ShardSize
	if shard == 0 && st != nil {
		shard = st.Shard
	}
	// The concurrency governor: how many shard units may hold iteration
	// memory at once. Pipelining needs two in-flight footprints; under a
	// budget the lane count shrinks until the combined worst case fits the
	// headroom, degrading to the sequential loop rather than letting
	// MemoryBudgetBytes go quietly dishonest.
	lanes := 1
	if want := opts.streamLanes(); want > 1 {
		lanes = want
		if b := opts.MemoryBudgetBytes; b > 0 {
			for lanes > 1 && int64(lanes)*shardFootprint(opts, o, e.n, minShard) > b-baseline {
				lanes--
			}
		}
	}
	if shard == 0 {
		shard = autoShard(opts, o, e.n, e.n-e.nextStart, baseline, lanes)
	}
	if shard < 1 {
		shard = 1
	}
	if lanes > 1 && opts.MemoryBudgetBytes > 0 {
		// An explicit ShardSize skipped autoShard's per-lane sizing: re-check
		// that the requested shard fits the budget lanes-wide.
		for lanes > 1 && int64(lanes)*shardFootprint(opts, o, e.n, shard) > opts.MemoryBudgetBytes-baseline {
			lanes--
		}
	}
	e.shard = shard
	if lanes > 1 {
		return e.streamPipelined(baseline)
	}

	for e.nextStart < e.n {
		start := e.nextStart
		end := start + e.shard
		if end > e.n {
			end = e.n
		}
		peakBefore := e.tr.Peak()
		hadFrontier := e.fixedEnd > 0
		e.initUnit(start, end)
		if err := e.runUnit(); err != nil {
			e.abort()
			return nil, err
		}
		e.fixedEnd, e.nextStart = end, end
		e.shardIdx++
		e.res.Shards = e.shardIdx
		if opts.Checkpoint != nil {
			opts.Checkpoint(e.snapshot())
		}
		// Resize only auto-derived shards: an explicit ShardSize is a
		// contract (equivalence tests, benchmarks sweep it), so a budget
		// crossing is reported, not silently repaired.
		if opts.ShardSize == 0 {
			e.shard = nextShard(e.shard, end-start, e.tr,
				opts.MemoryBudgetBytes, baseline, peakBefore, hadFrontier)
		}
	}
	return e.finish(), nil
}

// shardFootprint estimates the tracked bytes one streamed iteration holds
// for a shard of B vertices, assuming the densest admissible conflict
// subgraph (every bucket-sharing pair an edge). Deliberately worst-case:
// the initial shard must respect the budget before anything has been
// measured; nextShard replaces the estimate with measurement afterwards.
func shardFootprint(opts *Options, o graph.Oracle, n, B int) int64 {
	P := opts.paletteFor(B)
	L := opts.listSizeFor(B, P)
	lists := int64(4 * L)      // candidate lists
	buckets := int64(4*L + 24) // inverted index Vtx + RowWeight (+Off share)
	mask := int64(L + 12)      // forbidden mask + fixed-chunk staging
	var oracle int64           // compacted sub-view vertex data
	if ds, ok := o.(backend.DeviceSizer); ok && n > 0 {
		oracle = ds.DeviceBytes() / int64(n)
	}
	// Worst-case conflict edges for the shard: all ≈ B²L²/(2P) expected
	// bucket-sharing pairs become edges; during conversion the CSR
	// adjacency (8 bytes per edge) coexists with the builder's edge staging,
	// at most 8 bytes per edge (the device builders' COO; the host builders'
	// row-major lanes take 4).
	edges := int64(16) * int64(L) * int64(L) * int64(B) * int64(B) / int64(2*P)
	total := int64(B)*(4+lists+buckets+mask+oracle+32) + edges + int64(P)*16 + 4096
	return total * 5 / 4
}

// autoShard derives the initial shard size from the budget headroom: the
// largest B in [minShard, remaining] whose worst-case footprint fits lanes
// concurrent copies of (lanes is 1 for the sequential loop, 2 for the
// pipelined stream — each in-flight unit holds a full iteration
// footprint). Without a budget it falls back to the knob-free default.
// When even the minimum shard does not fit, it returns minShard
// anyway — the run degrades (and reports BudgetExceeded) instead of
// refusing.
func autoShard(opts *Options, o graph.Oracle, n, remaining int, baseline int64, lanes int) int {
	if remaining < 1 {
		return minShard
	}
	if lanes < 1 {
		lanes = 1
	}
	budget := opts.MemoryBudgetBytes
	if budget <= 0 {
		return defaultShardSize(remaining)
	}
	headroom := (budget - baseline) / int64(lanes)
	if shardFootprint(opts, o, n, minShard) >= headroom {
		return minShard
	}
	lo, hi := minShard, remaining
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if shardFootprint(opts, o, n, mid) <= headroom {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// nextShard resizes an auto-derived shard after each completed unit: halve
// after a budget crossing (graceful degradation); otherwise retarget from
// the measured per-vertex cost — but only when the just-finished shard
// actually set the tracker's peak (a shard that stayed below an older peak
// yields no fresh per-vertex evidence, and scaling a stale peak by a newer
// shard length systematically underestimates cost). The retarget keeps 30%
// headroom, inflates first-shard measurements (no frontier pass ran yet) by
// 25%, and is bounded to ×4 growth per step.
func nextShard(cur, lastLen int, tr *memtrack.Tracker, budget, baseline, peakBefore int64, hadFrontier bool) int {
	if budget <= 0 || lastLen <= 0 {
		return cur
	}
	peak := tr.Peak()
	if peak <= peakBefore {
		return cur // no new evidence; the current size is proven safe
	}
	if peak > budget {
		// This shard crossed the budget (the lifetime peak is monotone, so
		// only a *new* peak above budget means this shard did it — an old
		// crossing must not keep halving shards that behaved).
		half := cur / 2
		if half < minShard {
			half = minShard
		}
		return half
	}
	used := peak - baseline
	if used < 1 {
		used = 1
	}
	perVertex := (used + int64(lastLen) - 1) / int64(lastLen)
	if !hadFrontier {
		perVertex = perVertex * 5 / 4
	}
	target := (budget - baseline) * 7 / 10 / perVertex
	next := target
	if grown := int64(cur) * 4; next > grown {
		next = grown
	}
	if next < minShard {
		next = minShard
	}
	return int(next)
}

// nextShardConcurrent is nextShard's counterpart for multi-lane execution.
// The sequential retarget divides the run tracker's peak delta by the shard
// length — but under pipelining that peak includes the overlapped
// neighbor's build, so scaling it per vertex would overestimate cost and
// shrink shards forever. Here unitUsed is the finished unit's *own* bytes
// (its lane child tracker's peak: exact per-unit attribution, never
// inflated by a neighbor in flight), while the halve-on-crossing test still
// reads the shared root peak — the budget is a promise about the lanes
// combined. The retarget then reserves headroom for lanes concurrent
// footprints.
func nextShardConcurrent(cur, lastLen int, unitUsed, budget, baseline, peak, peakBefore int64, hadFrontier bool, lanes int) int {
	if budget <= 0 || lastLen <= 0 {
		return cur
	}
	if lanes < 1 {
		lanes = 1
	}
	if peak > budget && peak > peakBefore {
		// The combined in-flight footprint crossed the budget on our watch:
		// halve, exactly like the sequential governor (an old crossing must
		// not keep halving shards that behaved).
		half := cur / 2
		if half < minShard {
			half = minShard
		}
		return half
	}
	if unitUsed < 1 {
		return cur // no per-unit evidence (nil tracker): keep the proven size
	}
	perVertex := (unitUsed + int64(lastLen) - 1) / int64(lastLen)
	if !hadFrontier {
		perVertex = perVertex * 5 / 4
	}
	target := (budget - baseline) * 7 / 10 / int64(lanes) / perVertex
	next := target
	if grown := int64(cur) * 4; next > grown {
		next = grown
	}
	if next < minShard {
		next = minShard
	}
	return int(next)
}
