package backend

import (
	"context"

	"picasso/internal/memtrack"
)

func init() {
	Register("sequential", func(cfg Config) (ConflictBuilder, error) {
		return seqBuilder{arena: cfg.Arena}, nil
	})
}

// seqBuilder is the single-threaded CPU path (the paper's "CPU only"
// configuration): one scratch, one pass of the bucket kernel over all rows.
type seqBuilder struct{ arena *Arena }

func (seqBuilder) Name() string { return "sequential" }

func (b seqBuilder) Build(ctx context.Context, o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	m := o.Len()
	a := b.arena
	bk := NewBucketsIn(a, lists)
	a.reserveLanes(1)
	s := a.scratch(0, m)
	release := tr.Scoped(bk.Bytes() + s.Bytes())
	defer release()
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	ln := a.lane(0)
	st := Stats{PairsTested: bk.scanRows(AsBatch(o), lists, 0, m, s, ln)}
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	cg, st := finishLanes(a, []*rowLane{ln}, m, tr, st)
	return cg, st, nil
}
