package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	warmBase   = 1 << 30 // job indices of set-up jobs
	tracedBase = 1 << 29 // job indices of the traced phase
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run sets up (repeatedly; the last service is the one measured), then runs
// the timed or the traced mode.
func run(cfg config, out io.Writer) (result, error) {
	w := cfg.workload
	printEnv(out)
	tier := "memory"
	if w.disk {
		tier = "disk"
	}
	fmt.Fprintf(out, "workload %s: seed %d, %g s, trace %v, %d closed-loop client(s); service: 2 workers, LRU %d jobs, %s tier\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.clients, w.cacheJobs, tier)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var setups []float64
	var in *inputs
	var svc *service
	for r := 0; r < repeats; r++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		in, svc, err = setUp(cfg, filepath.Join(scratch, fmt.Sprintf("serve-%d", r)))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	fmt.Fprintf(out, "set-up %v s; %d strings in the pool\n", setups, len(in.pool))
	if cfg.trace {
		return runTraced(cfg, in, svc, scratch, out)
	}
	return runTimed(cfg, in, svc, median(setups), out)
}

// setUp generates the inputs, starts a service, and warms it up with
// distinct jobs from two clients, so both workers' arenas have grown to a
// full-size job before anything is timed.
func setUp(cfg config, dataDir string) (*inputs, *service, error) {
	in, err := generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	svc, err := startService(cfg.serveBin, cfg.workload, dataDir)
	if err != nil {
		return nil, nil, err
	}
	p := &phase{in: in, cl: newClient(svc.base), base: warmBase, until: stopAtOps(cfg.workload.warmOps)}
	ops, _ := p.run(2)
	for _, o := range ops {
		if o.err != nil {
			svc.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return in, svc, nil
}

// tally is a phase's operations, verified and split by kind.
type tally struct {
	newLat, hitLat []float64 // ms, successful operations only
	byIndex        map[int]*op
	attempted      int
	failed         int
}

// tallyOps verifies every new job's answer against its generated set (hits
// were compared with the first answer as they arrived) and splits the
// latencies by kind.
func tallyOps(in *inputs, ops []*op, out io.Writer) tally {
	t := tally{byIndex: make(map[int]*op), attempted: len(ops)}
	for _, o := range ops {
		if o.err == nil && !o.hit {
			o.err = verifyOp(in, o)
		}
		if o.err != nil {
			if t.failed < 5 {
				fmt.Fprintf(out, "FAILED: %v\n", o.err)
			}
			t.failed++
			continue
		}
		if o.hit {
			t.hitLat = append(t.hitLat, ms(o.latency))
		} else {
			t.newLat = append(t.newLat, ms(o.latency))
			t.byIndex[o.index] = o
		}
	}
	return t
}

func verifyOp(in *inputs, o *op) error {
	j, err := in.job(o.index)
	if err != nil {
		return err
	}
	if err := verifyGroups(j.set, o.groups); err != nil {
		return fmt.Errorf("job %s: %w", o.id, err)
	}
	if r := o.status.Result; r.NumColors != len(o.groups) || r.NumGroups != len(o.groups) {
		return fmt.Errorf("job %s: summary says %d colors, %d groups; /groups served %d",
			o.id, r.NumColors, r.NumGroups, len(o.groups))
	}
	return nil
}

func printMetric(out io.Writer, name string, v float64, unit, note string) {
	fmt.Fprintf(out, "  %-28s %16.4f %-6s %s\n", name, v, unit, note)
}

// runTimed is the untraced run that reports the end-to-end metrics.
func runTimed(cfg config, in *inputs, svc *service, setup float64, out io.Writer) (result, error) {
	w := in.w
	cl := newClient(svc.base)
	before, err := cl.stats()
	if err != nil {
		return result{}, err
	}
	p := &phase{in: in, cl: cl,
		until: stopAfter(time.Now().Add(seconds(cfg.seconds)), w.prefix)}
	ops, wall := p.run(w.clients)
	after, err := cl.stats()
	if err != nil {
		return result{}, err
	}
	rss, err := svc.peakRSS()
	if err != nil {
		return result{}, err
	}
	svc.stop()

	t := tallyOps(in, ops, out)
	res := result{Attempted: t.attempted, Failed: t.failed}
	m := newMetrics(endToEnd)
	fmt.Fprintf(out, "timed phase: %d new jobs, %d resubmissions (%d answered from disk) in %.2f s; %d of %d operations failed\n",
		len(t.newLat), len(t.hitLat), after.DiskHits-before.DiskHits, wall.Seconds(), t.failed, t.attempted)

	m.set("setup_s", setup)
	printMetric(out, "setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
	// Latency and throughput are printed, not gated (see endToEnd).
	latency := func(prefix string, lat []float64) {
		printMetric(out, prefix+"_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d, not gated", len(lat)))
		for _, q := range []float64{0.9, 0.99} {
			name := fmt.Sprintf("%s_p%g_ms", prefix, 100*q)
			if v, err := percentile(lat, q); err == nil {
				printMetric(out, name, v, "ms", fmt.Sprintf("n=%d, not gated", len(lat)))
			} else {
				fmt.Fprintf(out, "  %-28s refused: %v\n", name, err)
			}
		}
	}
	latency("job", t.newLat)
	perS := float64(len(t.newLat)) / wall.Seconds()
	printMetric(out, "jobs_per_s", perS, "1/s", fmt.Sprintf("n=%d over %.2f s, not gated", len(t.newLat), wall.Seconds()))
	latency("hit", t.hitLat)

	var errs []error
	var colors []float64
	var peak int64
	for i := 0; i < w.prefix; i++ {
		o, ok := t.byIndex[i]
		if !ok {
			errs = append(errs, fmt.Errorf("job %d of the fixed prefix has no verified answer", i))
			continue
		}
		colors = append(colors, float64(len(o.groups)))
		peak = max(peak, o.status.Result.PeakBytes)
	}
	m.set("colors", median(colors))
	printMetric(out, "colors", median(colors), "count", fmt.Sprintf("median over jobs 0..%d", w.prefix-1))
	m.set("peak_tracked_bytes", float64(peak))
	printMetric(out, "peak_tracked_bytes", float64(peak), "bytes", fmt.Sprintf("max over jobs 0..%d", w.prefix-1))
	m.set("peak_rss_bytes", float64(rss))
	printMetric(out, "peak_rss_bytes", float64(rss), "bytes", "service VmHWM")
	errFrac := float64(t.failed) / float64(t.attempted)
	printMetric(out, "error_frac", errFrac, "ratio", fmt.Sprintf("%d of %d operations (JSON: failed/attempted)", t.failed, t.attempted))

	res.Metrics = m.vals
	res.Correct = t.failed == 0
	if res.Correct {
		if err := errors.Join(append(errs, m.complete())...); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// runTraced runs an untraced and a traced HTTP phase of half the time each,
// then replays the traced phase's first jobs through the layers, and
// reports the per-layer metrics.
func runTraced(cfg config, in *inputs, svc *service, scratch string, out io.Writer) (result, error) {
	w := in.w
	cl := newClient(svc.base)
	half := seconds(cfg.seconds / 2)
	pa := &phase{in: in, cl: cl, until: stopAfter(time.Now().Add(half), 3)}
	opsA, wallA := pa.run(w.clients)

	tr := newTracer()
	before, err := cl.stats()
	if err != nil {
		return result{}, err
	}
	pb := &phase{in: in, cl: cl, tr: tr, base: tracedBase,
		until: stopAfter(time.Now().Add(half), max(3, w.replayJobs))}
	opsB, _ := pb.run(w.clients)
	after, err := cl.stats()
	if err != nil {
		return result{}, err
	}
	svc.stop()

	m := newMetrics(perLayer)
	records := 0.0
	if w.disk {
		if records, err = journalRecordsPerJob(filepath.Join(svc.dataDir, "journal.wal")); err != nil {
			return result{}, err
		}
	}
	ta := tallyOps(in, opsA, out)
	tb := tallyOps(in, opsB, out)
	res := result{Attempted: ta.attempted + tb.attempted, Failed: ta.failed + tb.failed}
	fmt.Fprintf(out, "untraced phase: %d new jobs, %d resubmissions; traced phase: %d new jobs, %d resubmissions\n",
		len(ta.newLat), len(ta.hitLat), len(tb.newLat), len(tb.hitLat))

	var queueWait, overhead []float64
	for _, o := range tb.byIndex {
		queueWait = append(queueWait, ms(o.status.StartedAt.Sub(o.status.SubmittedAt)))
		overhead = append(overhead, ms(o.latency)-o.status.Result.ElapsedMS)
	}
	diskRatio := 0.0
	if len(tb.hitLat) > 0 {
		diskRatio = float64(after.DiskHits-before.DiskHits) / float64(len(tb.hitLat))
	}

	// The replay worker is warmed with a set-up job first, untraced, as the
	// service's workers were.
	rp, err := newReplayer(w, nil, filepath.Join(scratch, "replay"))
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	warm, err := in.job(warmBase)
	if err != nil {
		return result{}, err
	}
	if _, err := rp.replay(warm); err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	rtr := newTracer()
	rp.tr = rtr
	var recs []*replayRecord
	for i := 0; i < w.replayJobs; i++ {
		res.Attempted++
		j, err := in.job(tracedBase + i)
		if err != nil {
			return result{}, err
		}
		rec, err := rp.replay(j)
		if err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		o, ok := tb.byIndex[tracedBase+i]
		switch {
		case !ok:
			fmt.Fprintf(out, "FAILED: replayed job %s has no verified HTTP answer\n", rec.id)
			res.Failed++
		case rec.id != o.id || rec.colors != len(o.groups):
			fmt.Fprintf(out, "FAILED: replay of %s made %d colors as %s; the service made %d as %s\n",
				o.id, rec.colors, rec.id, len(o.groups), o.id)
			res.Failed++
		}
		recs = append(recs, rec)
	}
	if err := rp.close(); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "replayed %d jobs through the layers; each matched the service's color count: %v\n",
		len(recs), res.Failed == ta.failed+tb.failed)

	col := func(f func(r *replayRecord) float64) float64 {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	var pairs, edges float64
	var appends []float64
	for _, r := range recs {
		pairs += float64(r.pairs)
		edges += float64(r.edges)
		appends = append(appends, r.appendMS...)
	}
	yield := 0.0
	if pairs > 0 {
		yield = edges / pairs
	}
	nB, nR := fmt.Sprintf("n=%d traced jobs", len(tb.newLat)), fmt.Sprintf("median of %d replayed jobs", len(recs))
	rows := []struct {
		name string
		v    float64
		note string
	}{
		{"client.job_p50_ms", median(ta.newLat), fmt.Sprintf("untraced phase, n=%d", len(ta.newLat))},
		{"client.jobs_per_s", float64(len(ta.newLat)) / wallA.Seconds(), fmt.Sprintf("untraced phase, n=%d over %.2f s", len(ta.newLat), wallA.Seconds())},
		{"client.hit_p50_ms", median(ta.hitLat), fmt.Sprintf("untraced phase, n=%d", len(ta.hitLat))},
		{"server.queue_wait_ms", median(queueWait), nB},
		{"server.overhead_ms", median(overhead), nB},
		{"server.disk_hit_ratio", diskRatio, fmt.Sprintf("%d disk hits of %d resubmissions", after.DiskHits-before.DiskHits, len(tb.hitLat))},
		{"jobspec.build_input_ms", col(func(r *replayRecord) float64 { return r.buildInputMS }), nR},
		{"backend.build_ms", col(func(r *replayRecord) float64 { return r.buildMS }), nR},
		{"backend.builds", col(func(r *replayRecord) float64 { return float64(r.builds) }), nR},
		{"backend.pairs_tested", col(func(r *replayRecord) float64 { return float64(r.pairs) }), nR},
		{"backend.conflict_edges", col(func(r *replayRecord) float64 { return float64(r.edges) }), nR},
		{"backend.edge_yield", yield, fmt.Sprintf("sum over %d replayed jobs", len(recs))},
		{"core.run_ms", col(func(r *replayRecord) float64 { return r.runMS }), nR},
		{"core.other_ms", col(func(r *replayRecord) float64 { return r.runMS - r.runBuildMS }), nR},
		{"core.iterations", col(func(r *replayRecord) float64 { return float64(r.iterations) }), nR},
		{"core.shards", col(func(r *replayRecord) float64 { return float64(r.shards) }), nR},
		{"core.fixed_pairs_tested", col(func(r *replayRecord) float64 { return float64(r.fixedPairs) }), nR},
		{"core.alloc_bytes", col(func(r *replayRecord) float64 { return r.allocBytes }), nR},
		{"core.refine_ms", col(func(r *replayRecord) float64 { return r.refineMS }), nR},
		{"core.refine_rounds", col(func(r *replayRecord) float64 { return float64(r.refineRounds) }), nR},
		{"core.refine_colors_removed", col(func(r *replayRecord) float64 { return float64(r.refineRemoved) }), nR},
		{"memtrack.peak_bytes", col(func(r *replayRecord) float64 { return float64(r.peakBytes) }), nR},
		{"artifact.put_ms", col(func(r *replayRecord) float64 { return r.putMS }), nR},
		{"artifact.get_ms", col(func(r *replayRecord) float64 { return r.getMS }), nR},
		{"artifact.bytes", col(func(r *replayRecord) float64 { return float64(r.artBytes) }), nR},
		{"journal.append_ms", median(appends), fmt.Sprintf("median of %d appends", len(appends))},
		{"journal.records_per_job", records, "the service's WAL, replayed after shutdown"},
		{"trace.overhead_ms", median(tb.newLat) - median(ta.newLat),
			fmt.Sprintf("traced p50 (n=%d) minus untraced p50 (n=%d)", len(tb.newLat), len(ta.newLat))},
	}
	for _, r := range rows {
		m.set(r.name, r.v)
		printMetric(out, r.name, r.v, m.vals[r.name].Unit, r.note)
	}
	if err := writeTrace(cfg.outDir, w, cfg.seed, tr.spans, rtr.spans, out); err != nil {
		return result{}, err
	}
	res.Metrics = m.vals
	res.Correct = res.Failed == 0
	return res, m.complete()
}
