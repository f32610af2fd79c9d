// Package server is the Picasso coloring service: an asynchronous job
// queue with an HTTP API over the coloring core and its pluggable
// conflict-construction backends. Clients POST a jobspec.Spec to /v1/jobs,
// a bounded worker pool colors each job through picasso.Color /
// picasso.ColorPauli, and clients poll /v1/jobs/{id} for live progress and
// fetch /v1/jobs/{id}/groups for the resulting color classes (the unitary
// groups, for Pauli inputs).
//
// Job ids are deterministic — the hash of the canonical spec — so
// resubmitting an identical job is idempotent: it joins the queued or
// running job, or is answered straight from the completed-job LRU without
// recoloring. That dedup is the hot path for a service fronting many
// clients that ask for the same grouping.
//
// With Config.ArtifactDir set, the result cache gains a disk tier
// (internal/artifact): finished jobs are persisted as content-addressed
// .pic artifacts, a resubmission after a restart rehydrates from disk
// without recoloring, prepped slabs are loaded instead of re-parsing the
// input, and append/refine child jobs resolve a parent this process never
// ran from its persisted artifact. Replicas pointed at a shared directory
// share all of the above.
package server

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"picasso"
	"picasso/internal/artifact"
	"picasso/internal/backend"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
)

// Config sizes the service.
type Config struct {
	// Workers is the coloring worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; past it,
	// submissions are rejected with 503 (0 = 256).
	QueueDepth int
	// CacheSize is the number of finished jobs retained in the LRU
	// (0 = 512).
	CacheSize int
	// CacheBytes additionally bounds the LRU by the approximate bytes of
	// retained results (groups + summaries), so a few huge-n results cannot
	// blow the cache past its intent (0 = 256 MiB).
	CacheBytes int64
	// MaxVertices rejects jobs larger than this at admission (0 = 1<<20).
	MaxVertices int
	// DefaultBackend is the conflict-construction backend used when a spec
	// leaves its backend empty ("" keeps the registry's auto selection).
	DefaultBackend string
	// DefaultBudgetBytes arms every job whose spec carries no budget of its
	// own with this host-memory budget (0 = none). Specs that asked to
	// stream size their shards from it; one-shot jobs report crossings in
	// their result summary.
	DefaultBudgetBytes int64
	// DefaultPipeline overlaps shard builds with coloring for streamed jobs
	// whose spec does not set pipeline; the coloring is unchanged
	// (bit-identical for a fixed shard size), only wall-clock.
	DefaultPipeline bool
	// DefaultEntrants races every streamed job whose spec carries no
	// portfolio block of its own as a portfolio of this many entrants
	// (values below 2 mean off); an explicit spec always wins. Append and
	// refine child jobs never race — their work is anchored to a frozen
	// parent grouping.
	DefaultEntrants int
	// MaxEntrants caps the portfolio width this server accepts, both from
	// specs and from DefaultEntrants (0 = picasso.MaxPortfolioEntrants).
	// Submissions past it are rejected with a typed "bad_portfolio" 400.
	MaxEntrants int
	// ArtifactDir, when non-empty, arms the disk tier: finished jobs are
	// persisted as content-addressed artifacts there (surviving restarts),
	// resubmissions rehydrate from disk without recoloring, prepped slabs
	// skip re-parsing, and child jobs resolve absent parents from disk.
	// It also arms the job journal: accepted-but-unfinished jobs survive a
	// crash and are re-enqueued (streamed runs resume from their last shard
	// checkpoint) when the next process opens the same directory.
	ArtifactDir string
	// TenantQuota bounds the active (queued + running) jobs per tenant, as
	// named by the X-Tenant request header; past it, that tenant's plain
	// submissions are rejected with 429 "tenant_quota" until its jobs
	// finish (0 = unlimited).
	TenantQuota int
	// RetryBackoff is the base delay before the first retry of a job with
	// a retry budget; each further retry doubles it, capped at 30s
	// (0 = 250ms).
	RetryBackoff time.Duration
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 1 << 20
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.MaxEntrants <= 0 || c.MaxEntrants > picasso.MaxPortfolioEntrants {
		c.MaxEntrants = picasso.MaxPortfolioEntrants
	}
	if c.DefaultEntrants > c.MaxEntrants {
		return fmt.Errorf("server: default entrants %d exceed the cap of %d", c.DefaultEntrants, c.MaxEntrants)
	}
	if c.DefaultBackend != "" && c.DefaultBackend != "auto" {
		// Probe the registry with the service's (device-less) resources:
		// this rejects unknown names AND backends the service cannot run,
		// such as "gpu" without a simulated device — at startup, not on the
		// first job.
		if _, err := backend.New(c.DefaultBackend, backend.Config{}); err != nil {
			return fmt.Errorf("server: default backend: %w", err)
		}
	}
	return nil
}

// servableBackend reports whether the service can actually run the named
// backend with the resources it wires into jobs (no simulated devices):
// the same registry probe job admission and /v1/backends use, so a client
// is never promised a backend whose jobs are doomed to fail at run time.
func servableBackend(name string) error {
	if name == "" || name == "auto" {
		return nil
	}
	_, err := backend.New(name, backend.Config{})
	return err
}

// Submission failure modes, surfaced to handlers as backpressure
// rejections (429 with a typed code for the first two, 503 for a closing
// server) carrying an honest Retry-After.
var (
	ErrQueueFull   = errors.New("server: job queue full")
	ErrTenantQuota = errors.New("server: tenant active-job quota reached")
	ErrClosed      = errors.New("server: shutting down")
)

// Cancellation failure modes, surfaced to handlers as 404/409.
var (
	ErrUnknownJob  = errors.New("server: unknown job id")
	ErrJobFinished = errors.New("server: job already finished")
)

// Server is the coloring service. It implements http.Handler; Close drains
// the worker pool.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *Job
	wg    sync.WaitGroup
	store *artifact.Store // disk tier, nil when ArtifactDir is unset

	// journal is the durable job log next to the artifacts (nil without
	// ArtifactDir); jmu serializes its fsync'd appends separately from mu,
	// so the job table never waits on disk.
	jmu     sync.Mutex
	journal *journal.Journal

	mu         sync.Mutex
	closed     bool
	draining   bool // closed via Drain: interrupted jobs stay live in the journal
	jobs       map[string]*Job
	done       *list.List // finished jobs, most recently used at the front
	cacheBytes int64      // approximate bytes pinned by the done LRU
	running    int
	tenants    map[string]int // active (queued+running) jobs per tenant
	avgRunMS   float64        // EWMA of completed-job wall time, feeds Retry-After
	stats      struct {
		submitted, cacheHits, completed, failed, cancelled, rejected, evicted int64
		diskHits, artifactLoads, artifactWrites                               int64
		resumed, restarted, retried, interrupted                              int64
		portfolioEntrants, portfolioCancelled, portfolioBoundPrunes           int64
	}
}

// New builds a server and starts its worker pool. Callers must Close it.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  make(map[string]*Job),
		done:  list.New(),
	}
	if cfg.ArtifactDir != "" {
		store, err := artifact.NewStore(cfg.ArtifactDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = store
	}
	s.routes()
	// The journal opens — and its survivors re-enqueue — before the worker
	// pool starts, so recovered jobs land in the buffered queue unobserved
	// and run in their original acceptance order. A torn final record is
	// healed silently; deeper corruption still yields the salvaged prefix
	// (recovery degrades to restart-from-scratch for the lost jobs' work,
	// never refuses to start).
	if cfg.ArtifactDir != "" {
		jnl, recs, err := journal.Open(filepath.Join(cfg.ArtifactDir, journalFileName))
		if err != nil && !errors.Is(err, journal.ErrCorrupt) {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = jnl
		s.recoverJournal(recs)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting jobs and waits for in-flight work to finish.
// Queued-but-unstarted jobs are still run — a closed queue channel drains.
// For a shutdown that checkpoints instead of finishing, see Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.closeJournal()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	s.closeJournal()
}

// Submit registers a job for an already-normalized spec and enqueues it if
// it is new. The bool reports a cache hit: the spec matched an existing
// queued, running, or finished job, and no new work was created.
func (s *Server) Submit(spec jobspec.Spec) (*Job, bool, error) {
	return s.SubmitTenant(spec, "")
}

// SubmitTenant is Submit with a tenant-quota bucket: when Config.TenantQuota
// is set and the named tenant already has that many active jobs, the
// submission is rejected with ErrTenantQuota (cache hits are always served —
// dedup does not create work, so it cannot exhaust a quota).
func (s *Server) SubmitTenant(spec jobspec.Spec, tenant string) (*Job, bool, error) {
	canonical := spec.Canonical()
	return s.enqueue(&Job{
		ID:        JobID(canonical),
		Spec:      spec,
		Canonical: canonical,
		Tenant:    tenant,
	})
}

// SubmitAppend registers an append job: the new strings will be colored
// against the frozen grouping of the finished parent job, without
// recoloring the parent's vertices. The parent's groups are snapshotted
// into the job at submission, so later cache eviction of the parent cannot
// strand it. Appending to a job that is itself an append works: the
// parent's own appended strings are folded in ahead of the new ones, so
// the rebuilt base input plus the combined append list reproduces exactly
// the vertex set the parent's groups cover. The bool reports a cache hit,
// exactly as for Submit.
func (s *Server) SubmitAppend(parent *Job, strs []string) (*Job, bool, error) {
	canonical := appendCanonical(parent.Canonical, strs)
	combined := strs
	if prior := parentAppendedStrings(parent); len(prior) > 0 {
		combined = make([]string, 0, len(prior)+len(strs))
		combined = append(combined, prior...)
		combined = append(combined, strs...)
	}
	return s.enqueue(&Job{
		ID:        JobID(canonical),
		Spec:      parent.Spec,
		Canonical: canonical,
		Append: &appendJob{
			ParentID: parent.ID,
			Strings:  combined,
			Appended: len(strs),
			Groups:   parent.Groups,
		},
	})
}

// SubmitRefine registers a refine job: the palette-refinement pass runs
// over the finished parent job's frozen grouping, on the parent's rebuilt
// input, and publishes the compacted grouping as this job's result (the
// parent's own groups stay served unchanged). The parent's groups — and,
// for append parents, their appended strings — are snapshotted into the job
// at submission, so later cache eviction of the parent cannot strand it.
// The bool reports a cache hit, exactly as for Submit.
func (s *Server) SubmitRefine(parent *Job, req RefineRequest) (*Job, bool, error) {
	// The handler normalized req; parse its budget once here into the job
	// so the worker never re-parses (and can never silently swallow) it.
	rb, err := jobspec.ParseBytes(req.Budget)
	if err != nil || rb < 0 {
		return nil, false, fmt.Errorf("server: bad refine budget %q", req.Budget)
	}
	// An explicit budget equal to what the job would inherit anyway (the
	// parent spec's, or the server default) is a no-op spelling: collapse
	// it before deriving the dedup key, so both requests join one job.
	if effective := parent.Spec.BudgetBytes(); rb > 0 {
		if effective == 0 {
			effective = s.cfg.DefaultBudgetBytes
		}
		if rb == effective {
			rb, req.Budget = 0, ""
		}
	}
	canonical := refineCanonical(parent.Canonical, req)
	strs := parentAppendedStrings(parent)
	return s.enqueue(&Job{
		ID:        JobID(canonical),
		Spec:      parent.Spec,
		Canonical: canonical,
		Refine: &refineJob{
			ParentID:     parent.ID,
			Rounds:       req.Rounds,
			TargetColors: req.TargetColors,
			BudgetBytes:  rb,
			Strings:      strs,
			Groups:       parent.Groups,
		},
	})
}

// parentAppendedStrings returns the strings a child job must fold into the
// rebuilt base input so the parent's groups cover the rebuilt vertex set
// exactly: an append parent carries them in Append, a refine parent in
// Refine (inherited from its own lineage). Every child-job submission goes
// through this one helper, so append/refine chains compose in any order.
func parentAppendedStrings(parent *Job) []string {
	switch {
	case parent.Append != nil:
		return parent.Append.Strings
	case parent.Refine != nil:
		return parent.Refine.Strings
	}
	return nil
}

// enqueue dedups and queues a prepared job. Callers fill identity fields;
// enqueue owns lifecycle fields (state, times, cancellation context). The
// lookup order is memory, then disk, then real work: a canonical spec
// matching an artifact on the disk tier rehydrates into the done LRU (a
// cache hit) instead of recoloring.
func (s *Server) enqueue(j *Job) (*Job, bool, error) {
	s.mu.Lock()
	s.stats.submitted++
	if existing, ok := s.jobs[j.ID]; ok {
		existing.Hits++
		s.stats.cacheHits++
		s.touch(existing)
		s.mu.Unlock()
		return existing, true, nil
	}
	if s.closed {
		s.stats.rejected++
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	s.mu.Unlock()

	// Disk tier, consulted outside the lock (file IO): a hit installs the
	// finished job; a concurrent submitter of the same spec converges onto
	// whichever install wins.
	if hydrated := s.rehydrate(j); hydrated != nil {
		return hydrated, true, nil
	}

	s.mu.Lock()
	if existing, ok := s.jobs[j.ID]; ok {
		// Raced with another submitter between the two critical sections.
		existing.Hits++
		s.stats.cacheHits++
		s.touch(existing)
		s.mu.Unlock()
		return existing, true, nil
	}
	if s.closed {
		s.stats.rejected++
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if q := s.cfg.TenantQuota; q > 0 && j.Tenant != "" && s.tenants[j.Tenant] >= q {
		s.stats.rejected++
		s.mu.Unlock()
		return nil, false, ErrTenantQuota
	}
	j.State = StateQueued
	j.Hits = 1
	j.SubmittedAt = time.Now()
	j.ctx, j.cancel = jobContext(j.SubmittedAt, j.Spec.DeadlineDuration())
	// The accepted record is marshaled before the queue push: once j is
	// queued a worker may cache the parsed input on j.Spec.
	data, err := json.Marshal(envelope(j))
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.holdTenantLocked(j)
	default:
		s.stats.rejected++
		s.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	s.mu.Unlock()

	// The accepted record is journaled after the queue push and outside mu
	// (it fsyncs): a crash in the gap loses only a job whose 202 the client
	// may not have seen, and replay tolerates a worker journaling "running"
	// first, so the ordering is safe.
	if err == nil {
		s.journalAppend(journal.Record{ID: j.ID, Event: journal.EventAccepted, Data: data})
	}
	return j, false, nil
}

// Cancel stops a job: a queued job transitions to "cancelled" immediately
// (the worker will skip it), a running job has its context cancelled and
// transitions at the engine's next stage boundary. The returned state is
// the job's state after the call ("cancelled", or "running" while the
// engine winds down). Finished jobs return ErrJobFinished.
func (s *Server) Cancel(id string) (string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", ErrUnknownJob
	}
	switch j.State {
	case StateQueued:
		j.cancel()
		j.State = StateCancelled
		j.FinishedAt = time.Now()
		s.stats.cancelled++
		s.releaseTenantLocked(j)
		s.retain(j)
		s.mu.Unlock()
		s.journalAppend(journal.Record{ID: id, Event: journal.EventCancelled})
		if s.store != nil {
			s.store.DeleteCheckpoint(id)
		}
		return StateCancelled, nil
	case StateRunning:
		j.cancel() // the run loop finishes the transition (and journals it)
		s.mu.Unlock()
		return StateRunning, nil
	default:
		st := j.State
		s.mu.Unlock()
		return st, ErrJobFinished
	}
}

// Status returns the wire status of a job.
func (s *Server) Status(id string) (StatusResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return StatusResponse{}, false
	}
	return s.statusLocked(j), true
}

// Stats snapshots the lifetime counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued := 0
	for _, j := range s.jobs {
		if j.State == StateQueued {
			queued++
		}
	}
	return StatsResponse{
		Submitted:      s.stats.submitted,
		CacheHits:      s.stats.cacheHits,
		DiskHits:       s.stats.diskHits,
		ArtifactLoads:  s.stats.artifactLoads,
		ArtifactWrites: s.stats.artifactWrites,
		Completed:      s.stats.completed,
		Failed:         s.stats.failed,
		Cancelled:      s.stats.cancelled,
		Rejected:       s.stats.rejected,
		Evicted:        s.stats.evicted,
		Resumed:        s.stats.resumed,
		Restarted:      s.stats.restarted,
		Retried:        s.stats.retried,
		Interrupted:    s.stats.interrupted,

		PortfolioEntrants:    s.stats.portfolioEntrants,
		PortfolioCancelled:   s.stats.portfolioCancelled,
		PortfolioBoundPrunes: s.stats.portfolioBoundPrunes,

		Queued:     queued,
		Running:    s.running,
		Retained:   s.done.Len(),
		CacheBytes: s.cacheBytes,
		Workers:    s.cfg.Workers,
	}
}
