package backend

import (
	"context"

	"picasso/internal/memtrack"
	"picasso/internal/par"
)

func init() {
	Register("parallel", func(cfg Config) (ConflictBuilder, error) {
		return parBuilder{workers: cfg.Workers, arena: cfg.Arena}, nil
	})
}

// parBuilder is the multicore CPU path: rows are split into contiguous
// chunks balanced by the buckets' per-row pair weights (not by row count —
// candidate pairs are triangular and bucket-skewed), each worker runs the
// kernel into a private row-major lane with private scratch, and the lanes
// are scattered into the CSR in worker order, so the CSR — and therefore
// the downstream coloring — is identical to the sequential builder's.
type parBuilder struct {
	workers int
	arena   *Arena
}

func (parBuilder) Name() string { return "parallel" }

func (b parBuilder) Build(ctx context.Context, o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	m := o.Len()
	workers := b.workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	a := b.arena
	bk := NewBucketsIn(a, lists)
	// Charge the index plus every worker's seen-bitset: the parallel path
	// holds workers× the scratch the sequential one does, and the byte-exact
	// memory model should say so.
	release := tr.Scoped(bk.Bytes() + int64(workers)*ScratchBytes(m))
	defer release()
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	// Lanes are reserved serially here; inside the weighted loop each worker
	// touches only its own lane, so arena reuse stays race-free.
	a.reserveLanes(workers)
	bo := AsBatch(o)
	locals := make([]*rowLane, workers)
	calls := a.callsBuf(workers)
	par.ForWeightedChunks(workers, bk.RowWeight, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		s := a.scratch(w, m)
		local := a.lane(w)
		calls[w] = bk.scanRows(bo, lists, lo, hi, s, local)
		locals[w] = local
	})
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	// Chunks are contiguous and issued in worker order, so the filled lanes
	// in worker order cover the rows ascending.
	lanes := locals[:0]
	var st Stats
	for w, local := range locals {
		if local == nil {
			continue
		}
		lanes = append(lanes, local)
		st.PairsTested += calls[w]
	}
	cg, st := finishLanes(a, lanes, m, tr, st)
	return cg, st, nil
}
