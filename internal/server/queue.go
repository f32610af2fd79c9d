package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"picasso"
	"picasso/internal/backend"
	"picasso/internal/faultpoint"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
)

// worker is one member of the bounded coloring pool: it drains the job
// queue until Close closes it. Each worker owns one buffer arena for its
// lifetime, so steady-state job traffic recolors inside pooled storage —
// the arena grows to the worker's largest job and every later job of that
// size or smaller allocates next to nothing.
func (s *Server) worker() {
	defer s.wg.Done()
	arena := picasso.NewArena()
	for job := range s.queue {
		s.run(job, arena)
	}
}

// run executes one job end to end: attempt, retry transient failures with
// exponential backoff up to the spec's budget, classify the outcome, and
// journal the terminal transition before it becomes observable. Panic
// isolation lives in attempt — a panicking coloring run fails (or retries)
// that job, never the worker. Jobs cancelled while queued are skipped
// (already terminal); jobs cancelled while running are observed by the
// engine at its next stage boundary. A drain's cancellation lands in the
// "interrupted" state instead, which stays live in the journal so the next
// process resumes it.
func (s *Server) run(job *Job, arena *picasso.Arena) {
	s.mu.Lock()
	if job.State != StateQueued {
		// Cancelled between enqueue and pickup; already retained.
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.StartedAt = time.Now()
	job.Attempts++
	attempt := job.Attempts
	s.running++
	s.mu.Unlock()
	s.journalAppend(journal.Record{ID: job.ID, Event: journal.EventRunning, Attempt: attempt})

	t0 := time.Now()
	summary, groups, set, err := s.attempt(job, arena, attempt)
	for s.retryable(job, err) {
		s.mu.Lock()
		job.Attempts++
		attempt = job.Attempts
		s.stats.retried++
		s.mu.Unlock()
		s.journalAppend(journal.Record{ID: job.ID, Event: journal.EventRetry,
			Attempt: attempt, Note: err.Error()})
		if werr := s.backoff(job, attempt); werr != nil {
			err = werr // cancelled or deadlined mid-backoff: classify that, not the stale error
			break
		}
		summary, groups, set, err = s.attempt(job, arena, attempt)
	}
	elapsed := time.Since(t0)

	finished := time.Now()
	if err == nil {
		// Persist before the done state becomes observable: a client that
		// sees "done" may immediately restart the server against the same
		// artifact dir and expect the disk tier to answer.
		summary.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		summary.Variant = job.Spec.Variant // "" (omitted) for standard coloring
		s.persistArtifact(job, set, groups, summary, finished)
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	state, event, errMsg := StateDone, journal.EventDone, ""
	switch {
	case errors.Is(err, context.Canceled) && draining:
		state, event, errMsg = StateInterrupted, journal.EventInterrupted, "interrupted by shutdown"
	case errors.Is(err, context.Canceled):
		state, event, errMsg = StateCancelled, journal.EventCancelled, "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		state, event, errMsg = StateFailed, journal.EventFailed, "deadline exceeded"
	case err != nil:
		state, event, errMsg = StateFailed, journal.EventFailed, err.Error()
	}

	// The journal learns the outcome before any client can: a crash between
	// the append and the in-memory transition merely re-runs dedup against
	// the persisted artifact at recovery. Interrupted jobs keep their
	// checkpoint sidecar — it is exactly what the next process resumes from.
	s.journalAppend(journal.Record{ID: job.ID, Event: event, Attempt: attempt, Note: errMsg})
	if state != StateInterrupted && s.store != nil {
		s.store.DeleteCheckpoint(job.ID)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	job.FinishedAt = finished
	job.State = state
	job.Err = errMsg
	switch state {
	case StateCancelled:
		s.stats.cancelled++
	case StateInterrupted:
		s.stats.interrupted++
	case StateFailed:
		s.stats.failed++
	default:
		job.Result = summary
		job.Groups = groups
		s.stats.completed++
		ms := float64(elapsed) / float64(time.Millisecond)
		if s.avgRunMS == 0 {
			s.avgRunMS = ms
		} else {
			s.avgRunMS = 0.7*s.avgRunMS + 0.3*ms
		}
	}
	s.releaseTenantLocked(job)
	s.retain(job)
}

// attempt is one isolated coloring attempt: the FaultWorkerColor seam
// fires first (with the attempt ordinal), and a panic anywhere below —
// injected or real — converts to an error for run's retry classification.
// (The arena stays reusable after a panic: every acquisition re-slices its
// buffer from scratch.)
func (s *Server) attempt(job *Job, arena *picasso.Arena, attempt int) (sum *ResultSummary, groups [][]int, set *picasso.PauliSet, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	if ferr := faultpoint.Hit(FaultWorkerColor, attempt); ferr != nil {
		return nil, nil, nil, ferr
	}
	return s.color(job, arena)
}

// color materializes the job's input and runs the coloring, streaming
// per-iteration statistics into the job's progress view. The coloring draws
// all iteration-scoped buffers from the worker's arena and observes the
// job's cancellation context at every engine stage boundary. Plain jobs go
// through jobspec.Run, the dispatch the CLI shares; append and refine child
// jobs extend or refine their parent's frozen grouping. The returned set is
// the materialized Pauli input (nil for oracle jobs) so run can persist it
// alongside the result.
func (s *Server) color(job *Job, arena *picasso.Arena) (*ResultSummary, [][]int, *picasso.PauliSet, error) {
	opts := job.Spec.Options()
	if opts.Backend == "" {
		opts.Backend = s.cfg.DefaultBackend
	}
	if opts.MemoryBudgetBytes == 0 && s.cfg.DefaultBudgetBytes > 0 {
		opts.MemoryBudgetBytes = s.cfg.DefaultBudgetBytes
	}
	// The serve-level pipeline default applies only to streamed jobs — an
	// explicit spec always wins, and one-shot jobs have no shards to overlap.
	if job.Spec.Streamed() && s.cfg.DefaultPipeline {
		opts.PipelineShards = true
	}
	opts.Arena = arena
	opts.Progress = func(st picasso.IterStats) {
		s.mu.Lock()
		job.Progress.Iterations++
		job.Progress.RemainingVertices = st.Uncolored // global, incl. unreached shards
		job.Progress.ConflictEdges += st.ConflictEdges
		job.Progress.PairsTested += st.PairsTested
		s.mu.Unlock()
	}
	progressed := false
	opts.Checkpoint = func(st picasso.RunState) {
		if !st.Resumable() {
			return
		}
		s.mu.Lock()
		job.Progress.Shards = st.Shards
		job.Progress.ColoredVertices = st.NextStart
		progressed = true
		s.mu.Unlock()
		s.persistCheckpoint(job, st)
	}
	// An armed builder fault point wraps the job's real builder so the
	// injected error surfaces exactly where a device or allocator failure
	// would — inside the k-th conflict-subgraph build.
	if faultpoint.Armed(FaultBuilderBuild) {
		if inner, berr := backend.New(opts.Backend, backend.Config{Workers: opts.Workers}); berr == nil {
			opts.Builder = &faultBuilder{inner: inner}
		}
	}

	oracle, set, err := s.buildInput(job)
	if err != nil {
		return nil, nil, nil, err
	}
	if job.Append != nil {
		return s.colorAppend(job, opts, set)
	}
	if job.Refine != nil {
		return s.colorRefine(job, opts, oracle, set)
	}

	// A checkpoint from an earlier attempt (or the previous process) turns
	// this streamed run into a resume: the already-colored prefix is
	// restored instead of recolored.
	spec := job.Spec
	var resume *picasso.RunState
	if spec.Streamed() {
		s.mu.Lock()
		resume = job.Resume
		s.mu.Unlock()
	}
	// The server's default entrants race streamed jobs that didn't ask. A
	// resumable checkpoint wins over the default — portfolio runs never
	// checkpoint, so one can only exist for a job that previously ran
	// single-entrant.
	if spec.Portfolio == nil && spec.Streamed() && s.cfg.DefaultEntrants >= 2 && resume == nil {
		spec.Portfolio = &jobspec.PortfolioSpec{Entrants: s.cfg.DefaultEntrants}
	}

	out, err := jobspec.Run(job.ctx, spec, oracle, set, opts, resume)
	if err != nil {
		// A checkpoint the engine rejects outright (corrupt, or stale
		// against a changed spec) must not wedge the job: if the resumed
		// run made no progress and the job is still live, drop the
		// checkpoint and recolor from scratch within this same attempt.
		if resume != nil && job.ctx.Err() == nil {
			s.mu.Lock()
			fresh := !progressed
			if fresh {
				job.Resume = nil
			}
			s.mu.Unlock()
			if fresh {
				return s.color(job, arena)
			}
		}
		return nil, nil, nil, err
	}

	// A refine block's pass ran in the same job: the published grouping is
	// the compacted one. A portfolio race's summary describes the winning
	// run (its peak covering all lanes combined), the nested block the race.
	groups := picasso.ColorGroups(out.Colors)
	sum := summarize(out.Result, groups)
	if out.Refine != nil {
		refineSummarize(sum, out.Result.NumColors, out.Refine)
	}
	if out.Portfolio != nil {
		sum.Portfolio = s.portfolioSummary(out.Portfolio)
	}
	return sum, groups, set, nil
}

// portfolioSummary digests a finished race for the status endpoint and
// folds it into the server's portfolio counters. The winner's groups flow
// into the normal persistence path, so a portfolio job's artifact is
// exactly a single run's.
func (s *Server) portfolioSummary(pres *picasso.PortfolioResult) *PortfolioSummary {
	s.mu.Lock()
	s.stats.portfolioEntrants += int64(len(pres.Entrants))
	s.stats.portfolioCancelled += int64(pres.CancelledEntrants)
	s.stats.portfolioBoundPrunes += pres.BoundPrunes
	s.mu.Unlock()

	ps := &PortfolioSummary{
		Entrants:     len(pres.Entrants),
		Winner:       pres.Winner,
		Bound:        pres.Bound,
		Cancelled:    pres.CancelledEntrants,
		BoundPrunes:  pres.BoundPrunes,
		TimeToBestMS: float64(pres.TimeToBest) / float64(time.Millisecond),
	}
	for _, e := range pres.Entrants {
		ps.EntrantStats = append(ps.EntrantStats, EntrantSummary{
			Index:            e.Index,
			Name:             e.Name,
			Colors:           e.Colors,
			Shards:           e.Shards,
			WallMS:           float64(e.Wall) / float64(time.Millisecond),
			PeakBytes:        e.PeakBytes,
			BoundPrunes:      e.BoundPrunes,
			Cancelled:        e.Cancelled,
			CancelledAtShard: e.CancelledAtShard,
		})
	}
	return ps
}

// buildInput materializes a job's input, consulting the disk tier first: a
// prep artifact matching the base spec hands back the parsed input and
// skips the parse entirely. Child jobs come through here too — their Spec
// is the base spec, which is exactly the artifact that holds the shared
// input. For graph jobs the prep hit is more than an optimization: a spec
// rehydrated from its canonical string carries only the content key, and
// the persisted CSR is the payload behind it (AttachGraph re-verifies the
// content hash before the spec accepts it).
func (s *Server) buildInput(job *Job) (picasso.Oracle, *picasso.PauliSet, error) {
	set, g := s.prepInput(job)
	if set != nil {
		return nil, set, nil
	}
	// The build caches the parsed input on the spec. It runs on a copy that
	// is stored back under mu, because status readers copy job.Spec under mu.
	spec := job.Spec
	if g != nil && spec.GraphCSR() == nil {
		// A mismatch is left for BuildInput to report: it names what is
		// missing, while a silently wrong attach could never verify.
		_ = spec.AttachGraph(g)
	}
	oracle, set, err := spec.BuildInput()
	s.mu.Lock()
	job.Spec = spec
	s.mu.Unlock()
	return oracle, set, err
}

// colorRefine takes the parent's rebuilt input (base spec plus any appended
// strings), replays the parent's frozen groups as the input coloring, and
// runs the palette-refinement pass over it. The parent grouping was proper
// by construction; refinement keeps it proper while shrinking the group
// count, and the job's groups are the compacted partition.
func (s *Server) colorRefine(job *Job, opts picasso.Options, oracle picasso.Oracle, set *picasso.PauliSet) (*ResultSummary, [][]int, *picasso.PauliSet, error) {
	if set != nil {
		if err := appendStringsToSet(set, job.Refine.Strings); err != nil {
			return nil, nil, nil, err
		}
	}
	oracle = jobspec.InputOracle(oracle, set)
	n := oracle.NumVertices()

	// The parent groups must cover the rebuilt input exactly: refinement —
	// unlike append — recolors only what already has a color.
	prevLen := 0
	for _, group := range job.Refine.Groups {
		prevLen += len(group)
	}
	if prevLen != n {
		return nil, nil, nil, fmt.Errorf("refine parent groups cover %d of %d vertices", prevLen, n)
	}
	prev, err := replayGroups(job.Refine.Groups, n)
	if err != nil {
		return nil, nil, nil, err
	}

	if job.Refine.BudgetBytes > 0 {
		opts.MemoryBudgetBytes = job.Refine.BudgetBytes
	}
	ropts := picasso.RefineOptions{Rounds: job.Refine.Rounds, TargetColors: job.Refine.TargetColors}
	rst, err := picasso.Refine(job.ctx, oracle, prev, opts, ropts)
	if err != nil {
		return nil, nil, nil, err
	}
	groups := picasso.ColorGroups(rst.Colors)
	sum := &ResultSummary{Vertices: n, NumGroups: len(groups)}
	refineSummarize(sum, rst.ColorsBefore, rst)
	return sum, groups, set, nil
}

// appendStringsToSet parses a child job's carried strings and appends them
// to the rebuilt base set, enforcing the parent's qubit width — the shared
// fold-in step of every append/refine chain.
func appendStringsToSet(set *picasso.PauliSet, strs []string) error {
	for i, str := range strs {
		p, err := picasso.ParsePauliStrings([]string{str})
		if err != nil {
			return fmt.Errorf("appended string %d: %w", i, err)
		}
		if p.Qubits() != set.Qubits() {
			return fmt.Errorf("appended string %d has %d qubits, parent has %d",
				i, p.Qubits(), set.Qubits())
		}
		set.Append(p.At(0))
	}
	return nil
}

// replayGroups converts a frozen group partition over n vertices back into
// a coloring (class ordinal = color — proper, since classes are exactly the
// parent's color classes), validating bounds and coverage.
func replayGroups(groups [][]int, n int) (picasso.Coloring, error) {
	prev := make(picasso.Coloring, n)
	for i := range prev {
		prev[i] = -1
	}
	for gi, group := range groups {
		for _, v := range group {
			if v < 0 || v >= n || prev[v] != -1 {
				return nil, fmt.Errorf("parent groups corrupt at vertex %d", v)
			}
			prev[v] = int32(gi)
		}
	}
	return prev, nil
}

// refineSummarize folds a refinement pass into a result summary: the
// published color count is the refined one, the pre-refinement count and
// rounds ride along, iteration and pair-test work accumulates on top of
// whatever the first pass already recorded (so inline-refine jobs report
// the whole pipeline, matching their live Progress counters), and a budget
// violation in either phase is reported.
func refineSummarize(sum *ResultSummary, colorsBefore int, rst *picasso.RefineStats) {
	sum.NumColors = rst.ColorsAfter
	sum.ColorsBefore = colorsBefore
	sum.RefineRounds = rst.Rounds
	sum.Iterations += rst.Iterations
	sum.PairsTested += rst.PairsTested
	if rst.HostPeakBytes > sum.PeakBytes {
		sum.PeakBytes = rst.HostPeakBytes
	}
	sum.BudgetExceeded = sum.BudgetExceeded || rst.BudgetExceeded
}

// colorAppend takes the parent's rebuilt base input, appends the job's full
// string list (a chained append's parent strings first, then the new
// ones), and extends the frozen grouping: every vertex the parent's groups
// cover keeps its exact group, the rest are colored against them by the
// streaming engine's fixed-color pass.
func (s *Server) colorAppend(job *Job, opts picasso.Options, set *picasso.PauliSet) (*ResultSummary, [][]int, *picasso.PauliSet, error) {
	if set == nil {
		return nil, nil, nil, fmt.Errorf("append parent is not a Pauli job")
	}
	base := set.Len()
	if err := appendStringsToSet(set, job.Append.Strings); err != nil {
		return nil, nil, nil, err
	}

	// The frozen prefix is whatever the parent's groups cover: the base
	// input alone for a first append, base plus the parent's own appends
	// for a chained one. Replayed as a coloring, the class ordinal is a
	// proper color (classes are exactly the parent's color classes).
	prevLen := 0
	for _, group := range job.Append.Groups {
		prevLen += len(group)
	}
	if prevLen < base || prevLen > set.Len() {
		return nil, nil, nil, fmt.Errorf("append parent groups cover %d strings, expected between %d and %d",
			prevLen, base, set.Len())
	}
	prev, err := replayGroups(job.Append.Groups, prevLen)
	if err != nil {
		return nil, nil, nil, err
	}

	res, err := picasso.Extend(job.ctx, picasso.CommutationOracle(set), prev, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	groups := picasso.ColorGroups(res.Colors)
	return summarize(res, groups), groups, set, nil
}

// summarize digests a Result for the status endpoint.
func summarize(res *picasso.Result, groups [][]int) *ResultSummary {
	return &ResultSummary{
		Vertices:           len(res.Colors),
		NumColors:          res.NumColors,
		NumGroups:          len(groups),
		Iterations:         len(res.Iters),
		MaxConflictEdges:   res.MaxConflictEdges,
		TotalConflictEdges: res.TotalConflictEdges,
		PairsTested:        res.TotalPairsTested,
		Fallback:           res.Fallback,
		Shards:             res.Shards,
		PipelinedShards:    res.PipelinedShards,
		OverlapRatio:       res.OverlapRatio,
		PeakBytes:          res.HostPeakBytes,
		BudgetExceeded:     res.BudgetExceeded,
		ResumedShards:      res.ResumedShards,
	}
}
