package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"picasso"
	"picasso/internal/faultpoint"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
)

// submitSpec normalizes and submits a spec directly (no HTTP), failing the
// test on any rejection.
func submitRaw(t *testing.T, s *Server, raw string) *Job {
	t.Helper()
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	j, hit, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", raw, err)
	}
	if hit {
		t.Fatalf("submit %s: unexpected cache hit", raw)
	}
	return j
}

// waitJob polls a job on the server directly until it leaves the live
// states, returning its final status.
func waitJob(t *testing.T, s *Server, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return StatusResponse{}
}

// jobGroups reads a done job's frozen groups.
func jobGroups(t *testing.T, s *Server, id string) [][]int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.State != StateDone {
		t.Fatalf("job %s not done", id)
	}
	return j.Groups
}

// The centerpiece: a streamed job interrupted by a graceful drain resumes —
// not restarts — in the next process on the same artifact dir, and the
// resumed coloring is bit-identical to an uninterrupted run of the same
// spec.
func TestDrainThenResumeBitIdentical(t *testing.T) {
	const spec = `{"random":"6000:0.5","seed":11,"shard":750}` // 8 shards
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j := submitRaw(t, s1, spec)

	// Wait until at least one shard checkpoint is durable, then drain.
	deadline := time.Now().Add(120 * time.Second)
	for {
		s1.mu.Lock()
		shards := j.Progress.Shards
		state := j.State
		s1.mu.Unlock()
		if shards >= 1 {
			break
		}
		if state == StateDone {
			t.Skip("job finished before the drain could interrupt it")
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard checkpoint observed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Drain()

	st, ok := s1.Status(j.ID)
	if !ok {
		t.Fatal("job vanished after drain")
	}
	if st.State == StateDone {
		t.Skip("job finished before the drain could interrupt it")
	}
	if st.State != StateInterrupted {
		t.Fatalf("drained job state = %s, want interrupted", st.State)
	}
	if got := s1.Stats(); got.Interrupted != 1 {
		t.Fatalf("interrupted stat = %d, want 1", got.Interrupted)
	}

	// Second process, same dir: the journal re-enqueues the job and the
	// checkpoint sidecar turns the restart into a resume.
	s2, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fin := waitJob(t, s2, j.ID)
	if fin.State != StateDone {
		t.Fatalf("recovered job state = %s (%s)", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.ResumedShards < 1 {
		t.Fatalf("recovered job result reports no resumed shards: %+v", fin.Result)
	}
	if got := s2.Stats(); got.Resumed != 1 {
		t.Fatalf("resumed stat = %d, want 1", got.Resumed)
	}

	// Reference: the same spec, uninterrupted, in a fresh dir.
	s3, err := New(Config{Workers: 1, ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ref := submitRaw(t, s3, spec)
	if rst := waitJob(t, s3, ref.ID); rst.State != StateDone {
		t.Fatalf("reference job state = %s (%s)", rst.State, rst.Error)
	}
	if !reflect.DeepEqual(jobGroups(t, s2, j.ID), jobGroups(t, s3, ref.ID)) {
		t.Fatal("resumed coloring differs from the uninterrupted run")
	}
}

// A job the previous process accepted but never started (accepted-only in
// the journal) is re-enqueued and runs to completion after a restart.
func TestQueuedJobRecovered(t *testing.T) {
	dir := t.TempDir()
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(`{"random":"400:0.5","seed":3}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	canonical := spec.Canonical()
	id := JobID(canonical)
	writeAcceptedRecord(t, dir, jobEnvelope{
		Spec: spec, Canonical: canonical,
		SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano),
	})

	s, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := waitJob(t, s, id); st.State != StateDone {
		t.Fatalf("recovered queued job state = %s (%s)", st.State, st.Error)
	}
	// Accepted-only jobs never started, so recovery counts neither a
	// resume nor a restart.
	if got := s.Stats(); got.Resumed != 0 || got.Restarted != 0 {
		t.Fatalf("stats = resumed %d restarted %d, want 0/0", got.Resumed, got.Restarted)
	}
}

// writeAcceptedRecord seeds a journal file with one accepted record, as if
// a previous process had enqueued the job and crashed.
func writeAcceptedRecord(t *testing.T, dir string, env jobEnvelope) {
	t.Helper()
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	writeAcceptedData(t, dir, JobID(env.Canonical), data)
}

// writeAcceptedData seeds a journal file with one accepted record carrying
// a raw envelope payload.
func writeAcceptedData(t *testing.T, dir, id string, data []byte) {
	t.Helper()
	jnl, _, err := journal.Open(dir + "/" + journalFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Time: time.Now().UTC().Format(time.RFC3339Nano),
		ID:   id, Event: journal.EventAccepted, Data: data,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// A journal written before the concurrent-lanes shard schedule was removed
// can hold an accepted streamed job whose spec still carries that knob.
// Envelope decoding is lenient, so the job recovers under its original id,
// runs on the sequential stream, and publishes a proper coloring.
func TestRemovedScheduleKnobRecovered(t *testing.T) {
	dir := t.TempDir()
	const canonical = `{"random":"400:0.5","mode":"normal","seed":6,"stream":true,"shard":100,"speculate":3}`
	id := JobID(canonical)
	writeAcceptedData(t, dir, id, []byte(`{"spec":`+canonical+`,"canonical":`+
		strconv.Quote(canonical)+`,"submitted_at":"`+time.Now().UTC().Format(time.RFC3339Nano)+`"}`))

	s, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := waitJob(t, s, id); st.State != StateDone {
		t.Fatalf("legacy job state = %s (%s)", st.State, st.Error)
	}
	groups := jobGroups(t, s, id)
	colors := make(picasso.Coloring, 400)
	for gi, g := range groups {
		for _, v := range g {
			colors[v] = int32(gi)
		}
	}
	if err := picasso.Verify(picasso.RandomGraph(400, 0.5, 6), colors); err != nil {
		t.Fatalf("recovered coloring: %v", err)
	}
}

// A torn final journal record — half a frame, as a kill -9 mid-append
// leaves — must not impede recovery of the intact prefix.
func TestTornJournalTailRecovered(t *testing.T) {
	dir := t.TempDir()
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(`{"random":"400:0.5","seed":4}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	canonical := spec.Canonical()
	id := JobID(canonical)
	writeAcceptedRecord(t, dir, jobEnvelope{
		Spec: spec, Canonical: canonical,
		SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano),
	})
	f, err := os.OpenFile(dir+"/"+journalFileName, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := waitJob(t, s, id); st.State != StateDone {
		t.Fatalf("job behind torn tail: state = %s (%s)", st.State, st.Error)
	}
}

// A corrupted checkpoint sidecar degrades recovery to restart-from-scratch
// — counted as restarted, never a wrong answer and never a wedged job.
func TestCorruptCheckpointFallsBackToRestart(t *testing.T) {
	dir := t.TempDir()
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(`{"random":"600:0.5","seed":5,"shard":200}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	canonical := spec.Canonical()
	id := JobID(canonical)
	writeAcceptedRecord(t, dir, jobEnvelope{
		Spec: spec, Canonical: canonical,
		SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano),
	})
	jnl, _, err := journal.Open(dir + "/" + journalFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{ID: id, Event: journal.EventRunning, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	// A garbage sidecar at the right path: GetCheckpoint must reject it.
	if err := os.WriteFile(dir+"/"+id+".ckpt", []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := waitJob(t, s, id); st.State != StateDone {
		t.Fatalf("job with corrupt checkpoint: state = %s (%s)", st.State, st.Error)
	}
	got := s.Stats()
	if got.Restarted != 1 || got.Resumed != 0 {
		t.Fatalf("stats = restarted %d resumed %d, want 1/0", got.Restarted, got.Resumed)
	}
}

// A panicking coloring run fails that job with the panic message and
// leaves the worker slot alive for the next job — exercised under -race by
// the CI test step.
func TestWorkerPanicIsolated(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	faultpoint.Set(FaultWorkerColor, faultpoint.PanicOn(1, "boom"))
	j := submitRaw(t, s, `{"random":"200:0.5","seed":6}`)
	st := waitJob(t, s, j.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "panic: boom") {
		t.Fatalf("panicked job: state = %s, error = %q", st.State, st.Error)
	}

	faultpoint.Clear(FaultWorkerColor)
	j2 := submitRaw(t, s, `{"random":"201:0.5","seed":6}`)
	if st := waitJob(t, s, j2.ID); st.State != StateDone {
		t.Fatalf("worker dead after panic: state = %s (%s)", st.State, st.Error)
	}
}

// A transient failure inside a conflict build consumes one retry and the
// next attempt succeeds — resuming from the persisted checkpoint for
// streamed jobs instead of recoloring the finished shards.
func TestRetryAfterBuilderFault(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, ArtifactDir: dir, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(`{"random":"800:0.5","seed":7,"shard":200,"retries":2}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	id := JobID(spec.Canonical())

	// Builds run once per coloring iteration, many per shard — a fixed
	// ordinal may land before the first checkpoint. Instead, fail the
	// first build AFTER a checkpoint sidecar is durable: attempt 2 then
	// provably has finished shards to resume past. The hook runs only in
	// the single worker's build loop (an injected builder is one lane),
	// so the flag needs no lock.
	failed := false
	ckpt := dir + "/" + id + ".ckpt"
	faultpoint.Set(FaultBuilderBuild, func(hit, _ int) error {
		if failed {
			return nil
		}
		if _, err := os.Stat(ckpt); err == nil {
			failed = true
			return errors.New("injected device loss")
		}
		return nil
	})
	j, hit, err := s.Submit(spec)
	if err != nil || hit {
		t.Fatalf("submit: hit=%v err=%v", hit, err)
	}
	st := waitJob(t, s, j.ID)
	if st.State != StateDone {
		t.Fatalf("retried job: state = %s (%s)", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", st.Attempts)
	}
	if got := s.Stats(); got.Retried != 1 {
		t.Fatalf("retried stat = %d, want 1", got.Retried)
	}
	if st.Result == nil || st.Result.ResumedShards < 1 {
		t.Fatalf("retry did not resume from the checkpoint: %+v", st.Result)
	}
}

// A job whose retry budget is exhausted fails with the transient error.
func TestRetriesExhausted(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{Workers: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hook := func(hit, _ int) error { return errors.New("persistent fault") }
	faultpoint.Set(FaultWorkerColor, hook)
	j := submitRaw(t, s, `{"random":"200:0.5","seed":8,"retries":2}`)
	st := waitJob(t, s, j.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "persistent fault") {
		t.Fatalf("exhausted job: state = %s, error = %q", st.State, st.Error)
	}
	if st.Attempts != 3 { // 1 initial + 2 retries
		t.Fatalf("attempts = %d, want 3", st.Attempts)
	}
}

// A spec deadline is a wall-clock bound from submission: a job that blows
// it fails with "deadline exceeded" and is not retried.
func TestDeadlineExceeded(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The worker blocks inside the fault hook until the job's wall-clock
	// deadline has expired, so the coloring starts against a dead context.
	block := make(chan struct{})
	faultpoint.Set(FaultWorkerColor, func(hit, _ int) error {
		<-block
		return nil
	})
	j := submitRaw(t, s, `{"random":"200:0.5","seed":9,"deadline":"30ms","retries":5}`)
	select {
	case <-j.ctx.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("deadline context never fired")
	}
	close(block)
	fin := waitJob(t, s, j.ID)
	if fin.State != StateFailed || fin.Error != "deadline exceeded" {
		t.Fatalf("deadlined job: state = %s, error = %q", fin.State, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("deadlined job retried: attempts = %d", fin.Attempts)
	}
}

// postTenant submits a job body over HTTP with an optional X-Tenant header.
func postTenant(t *testing.T, ts *httptest.Server, body, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// want429 asserts a typed backpressure rejection: HTTP 429, the expected
// machine-readable code, and a positive integer Retry-After.
func want429(t *testing.T, resp *http.Response, wantCode string) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != wantCode {
		t.Fatalf("code = %q, want %q", er.Code, wantCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

// A full job queue answers a typed 429 "queue_full" with a positive
// Retry-After — the handler-level backpressure contract.
func TestQueueFullTyped429(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	block := make(chan struct{})
	defer close(block)
	faultpoint.Set(FaultWorkerColor, func(hit, _ int) error {
		<-block
		return nil
	})

	// Worker 1 blocks on the first job; the second fills the depth-1
	// queue; the third bounces with "queue_full".
	if resp := postTenant(t, ts, `{"random":"100:0.5","seed":20}`, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	if resp := postTenant(t, ts, `{"random":"101:0.5","seed":20}`, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	want429(t, postTenant(t, ts, `{"random":"102:0.5","seed":20}`, ""), ErrCodeQueueFull)
}

// A tenant at its active-job quota gets a typed 429 "tenant_quota" while
// other tenants keep submitting; a finished job releases the slot.
func TestTenantQuotaTyped429(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{Workers: 1, QueueDepth: 16, TenantQuota: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	block := make(chan struct{})
	faultpoint.Set(FaultWorkerColor, func(hit, _ int) error {
		<-block
		return nil
	})

	if resp := postTenant(t, ts, `{"random":"110:0.5","seed":21}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice 1: HTTP %d", resp.StatusCode)
	}
	if resp := postTenant(t, ts, `{"random":"111:0.5","seed":21}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice 2: HTTP %d", resp.StatusCode)
	}
	want429(t, postTenant(t, ts, `{"random":"112:0.5","seed":21}`, "alice"), ErrCodeTenantQuota)
	if resp := postTenant(t, ts, `{"random":"112:0.5","seed":21}`, "bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's quota: HTTP %d", resp.StatusCode)
	}

	// Terminal jobs release their slots: once alice's jobs finish, she can
	// submit again.
	close(block)
	faultpoint.Clear(FaultWorkerColor)
	for _, body := range []string{`{"random":"110:0.5","seed":21}`, `{"random":"111:0.5","seed":21}`, `{"random":"112:0.5","seed":21}`} {
		var spec jobspec.Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, JobID(spec.Canonical()))
	}
	if resp := postTenant(t, ts, `{"random":"113:0.5","seed":21}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice blocked after her jobs finished: HTTP %d", resp.StatusCode)
	}
}

// An armed crash-before-persist fault leaves no checkpoint sidecar — the
// run still completes (persistence is best-effort), but a restart would
// have restarted, not resumed.
func TestCheckpointWriteFaultSkipsPersist(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	faultpoint.Set(FaultCheckpointWrite, func(hit, _ int) error {
		return errors.New("crash before persist")
	})
	j := submitRaw(t, s, `{"random":"600:0.5","seed":22,"shard":200}`)
	if st := waitJob(t, s, j.ID); st.State != StateDone {
		t.Fatalf("job with checkpoint faults: state = %s (%s)", st.State, st.Error)
	}
	if _, err := os.Stat(dir + "/" + j.ID + ".ckpt"); !os.IsNotExist(err) {
		t.Fatalf("checkpoint sidecar exists despite the armed fault: %v", err)
	}
}
