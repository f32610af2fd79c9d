package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"picasso"
	"picasso/internal/artifact"
	"picasso/internal/backend"
	"picasso/internal/bucket"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
	"picasso/internal/memtrack"
)

// replayRecord is what one job's replay measured in each layer.
type replayRecord struct {
	id     string
	colors int

	buildInputMS float64

	builds     int
	buildMS    float64 // every ConflictBuilder.Build of the job
	runBuildMS float64 // the builds inside the coloring call
	pairs      int64
	edges      int64

	runMS      float64
	iterations int
	shards     int
	fixedPairs int64
	allocBytes float64

	refineMS      float64
	refineRounds  int
	refineRemoved int

	peakBytes int64

	putMS, getMS float64
	artBytes     int64
	appendMS     []float64
}

// replayer runs job specs through the layers' public functions in the order
// the service calls them, like one service worker: one arena for all jobs,
// and on the disk tier a store and a journal of its own.
type replayer struct {
	tr     *tracer
	arena  *picasso.Arena
	barena *backend.Arena
	store  *artifact.Store // disk tier only
	jnl    *journal.Journal
}

func newReplayer(w workload, tr *tracer, dir string) (*replayer, error) {
	r := &replayer{tr: tr, arena: picasso.NewArena(), barena: backend.NewArena()}
	if !w.disk {
		return r, nil
	}
	store, err := artifact.NewStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		return nil, err
	}
	jnl, _, err := journal.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	r.store, r.jnl = store, jnl
	return r, nil
}

// close closes the journal (journal.Close is safe to call twice).
func (r *replayer) close() error {
	if r.jnl == nil {
		return nil
	}
	return r.jnl.Close()
}

// timedBuilder wraps the job's conflict builder to time and count each
// Build call, as a span under the current engine call.
type timedBuilder struct {
	inner  backend.ConflictBuilder
	tr     *tracer
	job    string
	parent int // the engine call's span
	rec    *replayRecord
	calls  time.Duration // Build time so far
}

func (b *timedBuilder) Name() string { return b.inner.Name() }

func (b *timedBuilder) Build(ctx context.Context, o backend.EdgeOracle, lists backend.Lists, tr *memtrack.Tracker) (*backend.ConflictGraph, backend.Stats, error) {
	sp := b.tr.start("backend.build", b.job, b.parent)
	t0 := time.Now()
	g, st, err := b.inner.Build(ctx, o, lists, tr)
	d := time.Since(t0)
	b.tr.end(sp)
	b.calls += d
	b.rec.builds++
	b.rec.buildMS += ms(d)
	b.rec.pairs += st.PairsTested
	if g != nil {
		b.rec.edges += g.Edges
	}
	return g, st, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// timed runs f inside a span and returns its wall time.
func (r *replayer) timed(name, job string, parent int, f func() error) (time.Duration, error) {
	sp := r.tr.start(name, job, parent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.tr.end(sp)
	return d, err
}

// replay runs one job: journal accepted and running, input build, coloring
// (stream or one-shot, then refine when the spec asks), artifact put,
// journal done, and the artifact get a later disk hit performs.
func (r *replayer) replay(j job) (*replayRecord, error) {
	var spec jobspec.Spec
	if err := json.Unmarshal(j.body, &spec); err != nil {
		return nil, err
	}
	rec := &replayRecord{}
	root := r.tr.start("replay.job", "", 0)
	defer r.tr.end(root)

	// The handler normalizes the spec before the job is accepted; the
	// worker builds the input after journaling that it runs.
	sp := r.tr.start("jobspec.build_input", "", root)
	t0 := time.Now()
	err := spec.Normalize()
	rec.buildInputMS = ms(time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	canonical := spec.Canonical()
	rec.id = artifact.Address(canonical)
	r.tr.setJob(root, rec.id)
	r.tr.setJob(sp, rec.id)

	env, err := json.Marshal(map[string]any{"spec": spec, "canonical": canonical,
		"submitted_at": time.Now().UTC().Format(time.RFC3339Nano)})
	if err != nil {
		return nil, err
	}
	if err := r.journal(rec, root, journal.Record{ID: rec.id, Event: journal.EventAccepted, Data: env}); err != nil {
		return nil, err
	}
	if err := r.journal(rec, root, journal.Record{ID: rec.id, Event: journal.EventRunning, Attempt: 1}); err != nil {
		return nil, err
	}

	var set *picasso.PauliSet
	d, err := r.timed("jobspec.build_input", rec.id, root, func() error {
		var err error
		_, set, err = spec.BuildInput()
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.buildInputMS += ms(d)

	opts := spec.Options()
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = defaultBudget // the service's -budget
	}
	inner, err := backend.New(opts.Backend, backend.Config{Workers: opts.Workers, Arena: r.barena})
	if err != nil {
		return nil, err
	}
	tb := &timedBuilder{inner: inner, tr: r.tr, job: rec.id, rec: rec}
	opts.Builder = tb
	opts.Arena = r.arena
	opts.Progress = func(st picasso.IterStats) {
		rec.iterations++
		rec.fixedPairs += st.FixedPairsTested
	}
	opts.Checkpoint = func(st picasso.RunState) {
		if st.Resumable() {
			rec.shards++
		}
	}
	runTracker := &memtrack.Tracker{}
	opts.Tracker = runTracker

	allocs0 := heapAllocs()
	var res *picasso.Result
	sp = r.tr.start("core.run", rec.id, root)
	tb.parent = sp
	t0 = time.Now()
	if spec.Streamed() {
		res, err = picasso.StreamPauli(context.Background(), set, opts)
	} else {
		res, err = picasso.ColorPauliContext(context.Background(), set, opts)
	}
	rec.runMS = ms(time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	rec.runBuildMS = ms(tb.calls)
	rec.peakBytes = runTracker.Peak()
	colors := res.Colors
	rec.colors = res.NumColors

	if ropts, ok := spec.RefineOptions(); ok {
		if b := spec.RefineBudgetBytes(); b > 0 {
			opts.MemoryBudgetBytes = b
		}
		refineTracker := &memtrack.Tracker{}
		opts.Tracker = refineTracker
		opts.Progress, opts.Checkpoint = nil, nil
		sp := r.tr.start("core.refine", rec.id, root)
		tb.parent = sp
		t0 := time.Now()
		rst, err := picasso.RefinePauli(context.Background(), set, res.Colors, opts, ropts)
		rec.refineMS = ms(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		colors = rst.Colors
		rec.colors = rst.ColorsAfter
		rec.refineRounds = rst.Rounds
		rec.refineRemoved = rst.ColorsBefore - rst.ColorsAfter
		rec.peakBytes = max(rec.peakBytes, refineTracker.Peak())
	}
	rec.allocBytes = heapAllocs() - allocs0

	if r.store != nil {
		if err := r.persist(rec, root, spec, set, colors); err != nil {
			return nil, err
		}
	}
	if err := r.journal(rec, root, journal.Record{ID: rec.id, Event: journal.EventDone, Attempt: 1}); err != nil {
		return nil, err
	}
	if r.store != nil {
		var groups [][]int
		d, err := r.timed("artifact.get", rec.id, root, func() error {
			art, err := r.store.Get(canonical)
			if err != nil {
				return err
			}
			groups = art.Index.Groups()
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(groups) != rec.colors {
			return nil, fmt.Errorf("artifact of %s holds %d groups, the run made %d", rec.id, len(groups), rec.colors)
		}
		rec.getMS = ms(d)
	}
	return rec, nil
}

// persist writes the finished job's artifact the way the service does:
// canonical spec, parsed slab, coloring in group order, its index and a
// metadata envelope.
func (r *replayer) persist(rec *replayRecord, root int, spec jobspec.Spec, set *picasso.PauliSet, colors picasso.Coloring) error {
	meta, err := json.Marshal(map[string]any{"spec": spec, "finished_at": time.Now().UTC().Format(time.RFC3339Nano)})
	if err != nil {
		return err
	}
	compact := make([]int32, len(colors))
	for gi, g := range picasso.ColorGroups(colors) {
		for _, v := range g {
			compact[v] = int32(gi)
		}
	}
	d, err := r.timed("artifact.put", rec.id, root, func() error {
		ix, err := bucket.BuildIndex(compact)
		if err != nil {
			return err
		}
		_, err = r.store.Put(&artifact.Artifact{Spec: spec.Canonical(), Set: set, Index: ix, Colors: compact, Meta: meta})
		return err
	})
	if err != nil {
		return err
	}
	rec.putMS = ms(d)
	fi, err := os.Stat(r.store.Path(rec.id))
	if err != nil {
		return err
	}
	rec.artBytes = fi.Size()
	return nil
}

// journal appends one lifecycle record on the disk tier.
func (r *replayer) journal(rec *replayRecord, root int, jr journal.Record) error {
	if r.jnl == nil {
		return nil
	}
	jr.Time = time.Now().UTC().Format(time.RFC3339Nano)
	d, err := r.timed("journal.append", rec.id, root, func() error { return r.jnl.Append(jr) })
	rec.appendMS = append(rec.appendMS, ms(d))
	return err
}

// journalRecordsPerJob replays a stopped service's journal and returns its
// records per distinct job.
func journalRecordsPerJob(path string) (float64, error) {
	jnl, recs, err := journal.Open(path)
	if err != nil {
		return 0, fmt.Errorf("replaying %s: %w", path, err)
	}
	if err := jnl.Close(); err != nil {
		return 0, err
	}
	ids := make(map[string]bool)
	for _, rec := range recs {
		ids[rec.ID] = true
	}
	if len(ids) == 0 {
		return 0, fmt.Errorf("journal %s holds no records", path)
	}
	return float64(len(recs)) / float64(len(ids)), nil
}
