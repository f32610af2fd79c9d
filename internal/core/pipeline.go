// Pipelined shard execution for the streaming engine: while shard k is in
// its color stage, shard k+1 runs its build stage — candidate-list
// assignment, conflict-subgraph construction, and the fixed-color pass
// against the frontier frozen at shard k's start — on a second arena with
// its own conflict builder and a child tracker of the run's root. The
// overlapped work is exactly the frontier-independent half of an iteration:
// shard randomness derives from (Seed, start) alone, the build consults
// only the input oracle, and the prefix fixed pass reads only colors below
// shard k's start, which shard k never writes. When the predecessor
// finishes, the engine adopts the prepared build, folds the frontier growth
// in as a delta fixed pass (Forbid marks only accumulate, so prefix ∪ delta
// equals the sequential single pass bit for bit), and colors — producing
// the exact coloring the sequential stream would, shard boundaries
// permitting (an explicit ShardSize guarantees identical boundaries;
// budget-derived sizing may diverge because the pipelined governor decides
// one shard later).
package core

import (
	"math/rand"
	"time"

	"picasso/internal/backend"
	"picasso/internal/memtrack"
)

// lane bundles the per-goroutine resources one in-flight stream unit needs:
// a private arena (core + backend pools), a conflict builder bound to that
// arena, and a child tracker that meters the unit's own bytes exactly while
// forwarding every charge to the run's root — the root's peak and budget
// verdict always cover the lanes combined.
type lane struct {
	ar  *Arena
	bld backend.ConflictBuilder
	tr  *memtrack.Tracker
}

// newLane builds an additional lane from the engine's backend
// configuration. Never called for injected builders (Options.streamLanes
// forces those sequential), so the registry constructor is always
// available; the underlying device handles are shared and are safe for
// concurrent builders.
func (e *engine) newLane() (*lane, error) {
	ar := NewArena()
	bld, err := backend.New(e.opts.Backend, backend.Config{
		Workers: e.opts.Workers,
		Device:  e.opts.Device,
		Devices: e.opts.multiDevices,
		Arena:   ar.backendArena(),
	})
	if err != nil {
		return nil, err
	}
	return &lane{ar: ar, bld: bld, tr: e.root.Child()}, nil
}

// prebuild is one in-flight prepared shard: the lane it runs on, the unit
// range, and — once done closes — the prepared first iteration plus the
// unit cursors the adopting engine needs (active table, RNG mid-stream
// after list assignment). err is a cancellation or builder failure; the
// unit's active-table charge is still held either way and is the
// adopter's (or discard's) to release.
type prebuild struct {
	ln          *lane
	start, end  int
	overlapped  bool // launched while a predecessor was still coloring
	done        chan struct{}
	prep        *prepared
	err         error
	active      []int32
	activeBytes int64
	iter        int
	rng         *rand.Rand
	dur         time.Duration
}

// startPrebuild launches shard [start, end)'s first-iteration prepare on
// ln's goroutine: a scratch engine sharing the run's oracle, options and
// colors array but drawing every charge from the lane. prefix is the
// frontier frozen for the overlapped fixed pass — always at or below any
// range a concurrently running predecessor writes — and fixedEnd the
// frontier the unit will see once adopted. idx is the shard's 0-based
// ordinal (stats only). The lane's child tracker peak is reset here so it
// meters exactly this unit.
func (e *engine) startPrebuild(ln *lane, start, end, prefix, fixedEnd, idx int, overlapped bool) *prebuild {
	pb := &prebuild{ln: ln, start: start, end: end, overlapped: overlapped, done: make(chan struct{})}
	ln.tr.ResetPeak()
	pe := &engine{
		ctx: e.ctx, o: e.o, opts: e.opts, ar: ln.ar,
		tr: ln.tr, root: ln.tr, builder: ln.bld,
		res: &Result{}, colors: e.colors, n: e.n,
		streamed: true, fixedEnd: prefix, shardIdx: idx,
	}
	go func() {
		defer close(pb.done)
		t0 := time.Now()
		// initUnit's equitable class-size table reads the colors below
		// fixedEnd, and only the prefix is frozen while the predecessor
		// colors; adopt rebuilds the table over the full frontier.
		pe.initUnit(start, end)
		pe.fixedEnd = fixedEnd
		pb.prep, pb.err = pe.prepareIter(prefix)
		pb.active, pb.activeBytes = pe.active, pe.activeBytes
		pb.iter, pb.rng = pe.iter, pe.rng
		pb.dur = time.Since(t0)
	}()
	return pb
}

// adopt points the engine at a finished prebuild: the lane's arena, builder
// and tracker become the engine's, and the unit cursors continue exactly
// where the prepare left them (iteration 1 half-done, RNG past the list
// assignment). The caller then finishes the iteration and runs the unit out.
func (e *engine) adopt(pb *prebuild) {
	e.ar, e.builder, e.tr = pb.ln.ar, pb.ln.bld, pb.ln.tr
	e.start, e.end = pb.start, pb.end
	e.active, e.activeBytes = pb.active, pb.activeBytes
	e.base = 0
	e.iter = pb.iter
	e.rng = pb.rng
	// The scratch engine never picked a color, so the class-size table is
	// rebuilt here over the same frontier the sequential loop would see.
	e.bal = e.newBalance()
}

// discardPrebuild drains an in-flight prebuild that will never be adopted
// (its adopter's predecessor failed): wait for the goroutine, then release
// every charge it still holds so the error path leaves the trackers
// balanced.
func discardPrebuild(pb *prebuild) {
	if pb == nil {
		return
	}
	<-pb.done
	if pb.prep != nil {
		pb.prep.release()
	}
	pb.ln.tr.Free(pb.activeBytes)
}

// streamPipelined is streamRun's two-lane schedule: every shard's build
// stage is launched before its predecessor colors, and the two lanes flip
// between in-flight shards. Checkpoints, cancellation points and the
// coloring itself are exactly the sequential loop's; only wall-clock (and
// the one-shard lag in budget-derived shard resizing) differ.
func (e *engine) streamPipelined(baseline int64) (*Result, error) {
	second, err := e.newLane()
	if err != nil {
		e.abort()
		return nil, err
	}
	lanes := [2]*lane{{ar: e.ar, bld: e.builder, tr: e.root.Child()}, second}
	flip := 1
	var buildTotal, buildHidden time.Duration

	clampEnd := func(start int) int {
		end := start + e.shard
		if end > e.n {
			end = e.n
		}
		return end
	}

	// The first shard has no predecessor to hide behind: its prebuild starts
	// here and is waited on immediately (overlapped = false, so it never
	// counts as a pipelined shard).
	pb := e.startPrebuild(lanes[0], e.nextStart, clampEnd(e.nextStart), e.fixedEnd, e.fixedEnd, e.shardIdx, false)
	for pb != nil {
		cur := pb
		// Launch the successor's build before coloring this shard — the
		// overlap the whole schedule exists for. Its fixed pass covers only
		// [0, cur.start), which this shard never writes; the growth
		// [cur.start, cur.end) is folded in after adoption.
		var nxt *prebuild
		if cur.end < e.n {
			nxt = e.startPrebuild(lanes[flip], cur.end, clampEnd(cur.end), cur.start, cur.end, e.shardIdx+1, true)
			flip = 1 - flip
		}
		peakBefore := e.root.Peak()
		hadFrontier := e.fixedEnd > 0

		waitStart := time.Now()
		<-cur.done
		wait := time.Since(waitStart)
		buildTotal += cur.dur
		if hidden := cur.dur - wait; hidden > 0 {
			buildHidden += hidden
		}
		if cur.err != nil {
			cur.ln.tr.Free(cur.activeBytes)
			discardPrebuild(nxt)
			e.abort()
			return nil, cur.err
		}
		e.adopt(cur)
		if err := e.finishIter(cur.prep); err != nil {
			e.tr.Free(e.activeBytes)
			e.activeBytes = 0
			discardPrebuild(nxt)
			e.abort()
			return nil, err
		}
		if err := e.runUnit(); err != nil {
			discardPrebuild(nxt)
			e.abort()
			return nil, err
		}
		if cur.overlapped {
			e.res.PipelinedShards++
		}
		e.fixedEnd, e.nextStart = cur.end, cur.end
		e.shardIdx++
		e.res.Shards = e.shardIdx
		if e.opts.Checkpoint != nil {
			// The successor's prebuild may still be in flight: it only reads
			// colors below this boundary, and snapshot only copies — the
			// checkpoint is the same resumable boundary the sequential loop
			// publishes.
			e.opts.Checkpoint(e.snapshot())
		}
		if e.opts.ShardSize == 0 {
			// Per-unit attribution: the finished lane's child peak is this
			// shard's own footprint, never inflated by the neighbor that
			// built concurrently; the root peak still governs halving. The
			// new size takes effect one shard late (the successor was sized
			// at launch) — the documented lag of budget-derived pipelining.
			e.shard = nextShardConcurrent(e.shard, cur.end-cur.start, cur.ln.tr.Peak(),
				e.opts.MemoryBudgetBytes, baseline, e.root.Peak(), peakBefore, hadFrontier, 2)
		}
		pb = nxt
	}
	if buildTotal > 0 {
		e.res.OverlapRatio = float64(buildHidden) / float64(buildTotal)
	}
	return e.finish(), nil
}
