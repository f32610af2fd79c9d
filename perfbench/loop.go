package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// op is one timed client operation: a new job, or the resubmission of a
// finished one (a hit), each through to its groups.
type op struct {
	hit     bool
	index   int // the job's index (for a hit: the job resubmitted)
	id      string
	latency time.Duration  // submit until the groups are read
	status  statusResponse // new jobs: the finished job's status
	groups  [][]int        // the answer
	err     error          // failed, refused or wrong
}

// phase is one closed loop of clients against a running service. Each
// client sends its next request only after the previous one completed.
type phase struct {
	in    *inputs
	cl    *client
	tr    *tracer             // nil when untraced
	base  int                 // index of the phase's first new job
	until func(p *phase) bool // called with mu held

	mu       sync.Mutex
	started  int             // operations claimed
	next     int             // new jobs claimed
	finished []int           // new jobs completed, in completion order
	reused   int             // finished[:reused] were resubmitted already
	answers  map[int][][]int // first answer of every completed new job
}

// overtime bounds how long a phase may run past its deadline while it waits
// for its minimum sample counts.
const overtime = 30 * time.Second

// stopAfter ends a phase at the deadline once at least minNew new jobs were
// claimed, and at the latest overtime later.
func stopAfter(deadline time.Time, minNew int) func(*phase) bool {
	return func(p *phase) bool {
		now := time.Now()
		return now.After(deadline.Add(overtime)) || now.After(deadline) && p.next >= minNew
	}
}

// stopAtOps ends a phase once n operations were claimed.
func stopAtOps(n int) func(*phase) bool {
	return func(p *phase) bool { return p.started >= n }
}

// run drives the phase with the given number of clients and returns every
// operation and the phase's wall time.
func (p *phase) run(clients int) ([]*op, time.Duration) {
	p.answers = make(map[int][][]int)
	t0 := time.Now()
	perClient := make([][]*op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				o, ok := p.claim(n)
				if !ok {
					return
				}
				if o.hit {
					p.doHit(o)
				} else {
					p.doNew(o)
				}
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var ops []*op
	for _, o := range perClient {
		ops = append(ops, o...)
	}
	return ops, wall
}

// claim picks a client's n-th operation: every hitEvery-th one resubmits the
// oldest finished job not resubmitted yet that finished at least minAge new
// jobs ago (so on the disk tier the LRU has evicted it); all others are new.
func (p *phase) claim(n int) (*op, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.until(p) {
		return nil, false
	}
	p.started++
	w := p.in.w
	if w.hitEvery > 0 && n%w.hitEvery == w.hitEvery-1 && p.reused < len(p.finished)-w.minAge {
		o := &op{hit: true, index: p.finished[p.reused]}
		p.reused++
		return o, true
	}
	o := &op{index: p.base + p.next}
	p.next++
	return o, true
}

// pollInterval spaces the polls of a job that has been out for elapsed:
// about fifty polls over its lifetime, between 1 ms and 10 ms apart.
func pollInterval(elapsed time.Duration) time.Duration {
	return min(max(elapsed/50, time.Millisecond), 10*time.Millisecond)
}

// await polls /groups until the job is done.
func (p *phase) await(id string, t0 time.Time, root int) ([][]int, error) {
	for {
		sp := p.tr.start("http.poll", id, root)
		g, ready, err := p.cl.groups(id)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if ready {
			p.tr.rename(sp, "http.groups")
			return g.Groups, nil
		}
		if time.Since(t0) > time.Minute {
			return nil, fmt.Errorf("job %s not done after a minute", id)
		}
		time.Sleep(pollInterval(time.Since(t0)))
	}
}

func (p *phase) doNew(o *op) {
	j, err := p.in.job(o.index)
	if err != nil {
		o.err = err
		return
	}
	t0 := time.Now()
	root := p.tr.start("op.new", "", 0)
	sp := p.tr.start("http.submit", "", root)
	sub, err := p.cl.submit(j.body)
	p.tr.end(sp)
	o.id = sub.ID
	p.tr.setJob(root, sub.ID)
	p.tr.setJob(sp, sub.ID)
	switch {
	case err != nil:
		o.err = err
	case sub.CacheHit:
		o.err = fmt.Errorf("new job %d (%s) was answered as a cache hit", o.index, sub.ID)
	default:
		o.groups, o.err = p.await(sub.ID, t0, root)
	}
	o.latency = time.Since(t0)
	p.tr.end(root)
	if o.err != nil {
		return
	}
	// The summary is read after the latency clock stopped: the groups are
	// the answer, the status is bookkeeping.
	sp = p.tr.start("op.status", sub.ID, 0)
	o.status, o.err = p.cl.status(sub.ID)
	p.tr.end(sp)
	if o.err == nil && (o.status.State != "done" || o.status.Result == nil) {
		o.err = fmt.Errorf("job %s: state %q after its groups were served", sub.ID, o.status.State)
	}
	if o.err != nil {
		return
	}
	p.mu.Lock()
	p.answers[o.index] = o.groups
	p.finished = append(p.finished, o.index)
	p.mu.Unlock()
}

func (p *phase) doHit(o *op) {
	j, err := p.in.job(o.index)
	if err != nil {
		o.err = err
		return
	}
	p.mu.Lock()
	want := p.answers[o.index]
	p.mu.Unlock()
	t0 := time.Now()
	root := p.tr.start("op.hit", "", 0)
	sp := p.tr.start("http.submit", "", root)
	sub, err := p.cl.submit(j.body)
	p.tr.end(sp)
	o.id = sub.ID
	p.tr.setJob(root, sub.ID)
	p.tr.setJob(sp, sub.ID)
	switch {
	case err != nil:
		o.err = err
	case !sub.CacheHit:
		o.err = fmt.Errorf("resubmitted job %d (%s) was not a cache hit", o.index, sub.ID)
	default:
		o.groups, o.err = p.await(sub.ID, t0, root)
	}
	o.latency = time.Since(t0)
	p.tr.end(root)
	if o.err == nil && !sameGroups(o.groups, want) {
		o.err = errors.New("resubmitted job " + sub.ID + " answered different groups than its first run")
	}
}
