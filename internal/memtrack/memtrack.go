// Package memtrack is the byte-exact memory-accounting model behind the
// paper's Table IV. Measuring max-RSS is meaningless across machines and Go
// GC configurations, so the experiment harness instead registers every
// long-lived data structure an algorithm holds (input graph, color lists,
// conflict edges, forbidden arrays, worklists) with a Tracker and reports
// the peak of the running sum — the same quantity max-RSS approximates on
// the paper's testbed.
//
// The host conflict builders keep their edges in row-major worker lanes
// (4 B/edge) and scatter them into the CSR (8 B/edge). The lanes are charged
// only while they are converted; the CSR is charged after that charge is
// released. So the tracked figure is 8 B/edge at any instant, against about
// 12 B/edge truly live, because a pooled arena retains the lanes for the
// next build. Untracked throughout: append slack in growable buffers (lane
// and candidate capacity beyond their length) and the per-row hit buffers.
//
// Beyond metering, a Tracker doubles as the engine's budget governor.
// SetBudget arms a byte ceiling; every Alloc that pushes the running sum
// across it is counted as a crossing and fires the notify callback once per
// crossing (an edge detector, not a level alarm). Allocations are never
// failed by the tracker itself — enforcement is the observer's policy: the
// streaming engine derives its shard size from the budget and shrinks it on
// a crossing, one-shot runs merely report BudgetExceeded in their result,
// and tests assert the recorded peak stayed under the ceiling. The
// invariant the governor guarantees is narrower and stronger than "never
// exceed": a crossing can never pass unrecorded.
//
// For concurrent work, Child builds a forwarding hierarchy: a child tracker
// meters one unit of work (a stream lane, a pipelined shard build) exactly
// — its peak is that unit's bytes alone — while forwarding every Alloc and
// Free to the parent, whose current/peak therefore cover all in-flight
// units combined. Budgets are armed on the parent only; the budget verdict
// is a property of the whole run, never of a single lane. The coloring
// service leans on the same mechanism per job: each job's tracker is
// independent, so one job's verdict never bleeds into another's.
//
// The zero Tracker is ready to use, and a nil *Tracker is a valid no-op
// sink, so instrumented code paths carry no nil checks and no overhead when
// accounting is off.
package memtrack

import "sync"

// Tracker accumulates live bytes and remembers the peak. The zero value is
// ready to use; a nil *Tracker is a valid no-op sink so instrumented code
// never needs nil checks.
//
// A Tracker can also act as a governor rather than a mere meter: SetBudget
// arms a byte budget, and every allocation that pushes the running sum past
// it counts as an exceedance and (once per crossing) fires the notify
// callback. Instrumented code does not fail allocations — enforcement is the
// caller's policy (the streaming engine shrinks its shard size; tests assert
// the peak stayed under budget) — but the crossing is always recorded, so a
// budget violation can never pass silently.
type Tracker struct {
	mu      sync.Mutex
	current int64
	peak    int64
	budget  int64
	over    bool // currently above budget (edge detector for notify)
	crossed int64
	notify  func(current, budget int64)
	// parent, when non-nil, receives a copy of every Alloc/Free (see Child):
	// this tracker then meters one unit of work exactly while the shared
	// root keeps the combined, budget-bearing view.
	parent *Tracker
}

// Child returns a tracker that forwards every Alloc and Free to t while
// keeping its own current/peak — per-unit attribution under concurrent
// stream lanes: each lane meters its own footprint exactly (its peak is the
// lane's bytes alone, never inflated by a neighbor in flight) while the
// parent's peak and budget verdict cover all in-flight lanes combined.
// Reset and ResetPeak on the child never touch the parent; budgets are
// armed on the parent, not on children. Child of a nil tracker is nil (the
// usual no-op sink).
func (t *Tracker) Child() *Tracker {
	if t == nil {
		return nil
	}
	return &Tracker{parent: t}
}

// Alloc records n live bytes (n may be negative to adjust).
func (t *Tracker) Alloc(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.current += n
	if t.current > t.peak {
		t.peak = t.current
	}
	var fire func(current, budget int64)
	var cur, bud int64
	if t.budget > 0 {
		if t.current > t.budget && !t.over {
			t.over = true
			t.crossed++
			fire, cur, bud = t.notify, t.current, t.budget
		} else if t.current <= t.budget {
			t.over = false
		}
	}
	t.mu.Unlock()
	if fire != nil {
		fire(cur, bud)
	}
	// Forward outside the lock: parent and child order their own updates
	// independently, so two children never deadlock on a shared root.
	t.parent.Alloc(n)
}

// Free releases n live bytes.
func (t *Tracker) Free(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.current -= n
	if t.budget > 0 && t.current <= t.budget {
		t.over = false
	}
	t.mu.Unlock()
	t.parent.Free(n)
}

// Current returns the live byte count.
func (t *Tracker) Current() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Peak returns the maximum live byte count observed.
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Reset zeroes the byte counters and the budget-crossing state. The budget
// itself and the notify callback survive a Reset: they are configuration,
// not accumulated state.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.current = 0
	t.peak = 0
	t.over = false
	t.crossed = 0
	t.mu.Unlock()
}

// ResetPeak lowers the high-water mark to the current live byte count
// without touching the running sum: the start-of-run baseline for a
// tracker that outlives one run. Peaks (and budget verdicts, which compare
// the peak) then describe this run plus whatever the caller still holds —
// pre-charged input slabs stay included — instead of a previous run's
// transient high water.
func (t *Tracker) ResetPeak() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.peak = t.current
	t.mu.Unlock()
}

// SetBudget arms (or, with 0, disarms) a byte budget. Allocations are never
// refused; crossing the budget is recorded (see Exceedances) and reported
// through the OnBudget callback once per crossing.
func (t *Tracker) SetBudget(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.budget = n
	if n <= 0 || t.current <= n {
		t.over = false
	}
	t.mu.Unlock()
}

// Budget returns the armed budget (0 = none).
func (t *Tracker) Budget() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.budget
}

// OnBudget installs f as the budget-crossing observer: it is called once
// each time the live byte count rises from at-or-under to over the armed
// budget, outside the tracker lock (f may call tracker methods).
func (t *Tracker) OnBudget(f func(current, budget int64)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notify = f
	t.mu.Unlock()
}

// OverBudget reports whether the peak has ever exceeded the armed budget —
// the "did this run respect its budget" verdict. Always false when no
// budget is armed.
func (t *Tracker) OverBudget() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.budget > 0 && t.peak > t.budget
}

// Exceedances counts upward budget crossings since the last Reset.
func (t *Tracker) Exceedances() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crossed
}

// Headroom returns budget − current, the bytes still available under the
// armed budget (negative when over); 0 when no budget is armed.
func (t *Tracker) Headroom() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.budget <= 0 {
		return 0
	}
	return t.budget - t.current
}

// Scoped records an allocation and returns the matching release closure:
//
//	defer tr.Scoped(bytes)()
func (t *Tracker) Scoped(n int64) func() {
	t.Alloc(n)
	return func() { t.Free(n) }
}

// GB converts bytes to gigabytes (10^9, as in the paper's tables).
func GB(bytes int64) float64 { return float64(bytes) / 1e9 }
