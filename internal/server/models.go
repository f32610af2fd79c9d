package server

import "picasso/internal/jobspec"

// Job lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	// StateInterrupted marks a job cut short by a graceful drain: terminal
	// in this process, but its journal record stays live, so the next
	// process on the same artifact dir re-enqueues it (resuming streamed
	// runs from their last checkpoint).
	StateInterrupted = "interrupted"
)

// SubmitResponse answers POST /v1/jobs. CacheHit reports that the canonical
// spec matched an existing job (queued, running, or completed) and no new
// work was enqueued; Hits counts how many times this spec has been
// submitted in total, so clients — and the acceptance tests — can observe
// the dedup working.
type SubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Hits     int64  `json:"hits"`
}

// ProgressInfo is the live view of a running job, fed by the per-iteration
// progress callback: how many Algorithm 1 iterations have completed, how
// many vertices are still uncolored, and the cumulative conflict work.
// Streamed jobs additionally report completed shards and the size of the
// frozen (fully colored) frontier.
type ProgressInfo struct {
	Iterations        int   `json:"iterations"`
	RemainingVertices int   `json:"remaining_vertices"`
	ConflictEdges     int64 `json:"conflict_edges"`
	PairsTested       int64 `json:"pairs_tested"`
	Shards            int   `json:"shards,omitempty"`
	ColoredVertices   int   `json:"colored_vertices,omitempty"`
}

// ResultSummary is the completed-run digest embedded in a status response;
// the group membership itself lives behind /v1/jobs/{id}/groups. Jobs that
// ran the palette-refinement pass — a refine block in the spec, or a
// /refine child job — additionally report the pre-refinement color count
// and the rounds spent.
type ResultSummary struct {
	Vertices           int     `json:"vertices"`
	NumColors          int     `json:"num_colors"`
	NumGroups          int     `json:"num_groups"`
	Variant            string  `json:"variant,omitempty"`
	Iterations         int     `json:"iterations"`
	MaxConflictEdges   int64   `json:"max_conflict_edges"`
	TotalConflictEdges int64   `json:"total_conflict_edges"`
	PairsTested        int64   `json:"pairs_tested"`
	Fallback           bool    `json:"fallback,omitempty"`
	Shards             int     `json:"shards,omitempty"`
	PipelinedShards    int     `json:"pipelined_shards,omitempty"`
	OverlapRatio       float64 `json:"overlap_ratio,omitempty"`
	PeakBytes          int64   `json:"peak_bytes,omitempty"`
	BudgetExceeded     bool    `json:"budget_exceeded,omitempty"`
	ColorsBefore       int     `json:"colors_before,omitempty"`
	RefineRounds       int     `json:"refine_rounds,omitempty"`
	ResumedShards      int     `json:"resumed_shards,omitempty"`
	ElapsedMS          float64 `json:"elapsed_ms"`
	// Portfolio digests a portfolio race (spec portfolio block, or the
	// server's default entrants): winner identity, the shared bound, and one
	// row per entrant. The summary's top-level fields describe the winning
	// run (with peak_bytes covering all lanes combined).
	Portfolio *PortfolioSummary `json:"portfolio,omitempty"`
}

// PortfolioSummary digests a portfolio race for the status endpoint.
type PortfolioSummary struct {
	Entrants     int              `json:"entrants"`
	Winner       int              `json:"winner"`
	Bound        int              `json:"bound"`        // phase-A color count the racers pruned against
	Cancelled    int              `json:"cancelled"`    // entrants retired early by the shared bound
	BoundPrunes  int64            `json:"bound_prunes"` // candidate slots the bound forbade, all lanes
	TimeToBestMS float64          `json:"time_to_best_ms"`
	EntrantStats []EntrantSummary `json:"entrant_stats"`
}

// EntrantSummary is one portfolio entrant's digest: its distinguishing
// configuration and what its run did. Cancelled entrants report no colors —
// they never finished — plus the shard count at which the bound retired them.
type EntrantSummary struct {
	Index            int     `json:"index"`
	Name             string  `json:"name"`
	Colors           int     `json:"colors,omitempty"`
	Shards           int     `json:"shards,omitempty"`
	WallMS           float64 `json:"wall_ms"`
	PeakBytes        int64   `json:"peak_bytes,omitempty"`
	BoundPrunes      int64   `json:"bound_prunes,omitempty"`
	Cancelled        bool    `json:"cancelled,omitempty"`
	CancelledAtShard int     `json:"cancelled_at_shard,omitempty"`
}

// AppendRequest is the body of POST /v1/jobs/{id}/append: new Pauli strings
// to color against the finished parent job's frozen grouping.
type AppendRequest struct {
	Strings []string `json:"strings"`
}

// RefineRequest is the body of POST /v1/jobs/{id}/refine: run the
// palette-refinement pass over the finished parent job's frozen grouping,
// clawing back colors without ever breaking an existing guarantee. Zero
// fields mean engine defaults; Budget defaults to the parent's budget. It
// is the spec's refine block verbatim, so validation and canonical budget
// spelling come from jobspec.RefineSpec.Normalize.
type RefineRequest = jobspec.RefineSpec

// StatusResponse answers GET /v1/jobs/{id}.
type StatusResponse struct {
	ID          string         `json:"id"`
	State       string         `json:"state"`
	Spec        jobspec.Spec   `json:"spec"`
	Hits        int64          `json:"hits"`
	SubmittedAt string         `json:"submitted_at"`
	StartedAt   string         `json:"started_at,omitempty"`
	FinishedAt  string         `json:"finished_at,omitempty"`
	AppendTo    string         `json:"append_to,omitempty"`    // parent id for append jobs
	AppendCount int            `json:"append_count,omitempty"` // strings appended
	RefineOf    string         `json:"refine_of,omitempty"`    // parent id for refine jobs
	Attempts    int            `json:"attempts,omitempty"`     // coloring attempts, >1 after retries
	Progress    *ProgressInfo  `json:"progress,omitempty"`
	Result      *ResultSummary `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// GroupsResponse answers GET /v1/jobs/{id}/groups: the color classes in
// ascending color order — for Pauli inputs, the unitary groups.
type GroupsResponse struct {
	ID        string  `json:"id"`
	NumGroups int     `json:"num_groups"`
	Groups    [][]int `json:"groups"`
}

// StatsResponse answers GET /v1/stats with the server's lifetime counters.
// The three artifact counters report the disk tier: disk_hits are
// submissions answered from a persisted artifact without recoloring,
// artifact_loads are prepped slabs reused instead of re-parsing, and
// artifact_writes are finished jobs persisted. The recovery counters
// report the journal replay at startup: resumed jobs continued a streamed
// run from its persisted checkpoint, restarted jobs had begun but left no
// usable checkpoint, and interrupted counts jobs cut short by a drain in
// THIS process (they become the next process's resumed/restarted).
type StatsResponse struct {
	Submitted      int64 `json:"submitted"`
	CacheHits      int64 `json:"cache_hits"`
	DiskHits       int64 `json:"disk_hits"`
	ArtifactLoads  int64 `json:"artifact_loads"`
	ArtifactWrites int64 `json:"artifact_writes"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	Cancelled      int64 `json:"cancelled"`
	Rejected       int64 `json:"rejected"`
	Evicted        int64 `json:"evicted"`
	Resumed        int64 `json:"resumed"`
	Restarted      int64 `json:"restarted"`
	Retried        int64 `json:"retried"`
	Interrupted    int64 `json:"interrupted"`
	// The portfolio counters aggregate the racing subsystem: entrants ever
	// raced, entrants the shared bound cancelled early, and candidate color
	// slots it pruned across all lanes.
	PortfolioEntrants    int64 `json:"portfolio_entrants"`
	PortfolioCancelled   int64 `json:"portfolio_cancelled"`
	PortfolioBoundPrunes int64 `json:"portfolio_bound_prunes"`
	Queued               int   `json:"queued"`
	Running              int   `json:"running"`
	Retained             int   `json:"retained"`
	CacheBytes           int64 `json:"cache_bytes"`
	Workers              int   `json:"workers"`
}

// ErrorResponse is the uniform error body. Code, when present, is a stable
// machine-readable discriminator for errors clients branch on — the
// job-control endpoints set it ("unknown_job", "parent_not_done",
// "parent_not_pauli"), so a child submission against a cancelled or failed
// parent is distinguishable from a transport-level 4xx without parsing the
// message text.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Stable ErrorResponse.Code values for the job-control endpoints.
const (
	ErrCodeUnknownJob     = "unknown_job"
	ErrCodeParentNotDone  = "parent_not_done"
	ErrCodeParentNotPauli = "parent_not_pauli"
	// Backpressure codes on 429/503 rejections; the response carries an
	// honest Retry-After derived from queue depth and observed job times.
	ErrCodeQueueFull   = "queue_full"   // bounded job queue at capacity
	ErrCodeTenantQuota = "tenant_quota" // per-tenant active-job quota hit
	ErrCodeDraining    = "draining"     // server shutting down
	// ErrCodeBadPortfolio marks a 400 whose portfolio block is invalid:
	// non-positive entrants, or more entrants than this server allows.
	ErrCodeBadPortfolio = "bad_portfolio"
	// ErrCodeBadInput marks a 400 whose input-source selection is wrong:
	// none of the input kinds (random, instance, strings, graph) set, or
	// more than one — the request is composed wrong, not merely mistyped.
	ErrCodeBadInput = "bad_input"
)
