package jobspec

import (
	"context"

	"picasso"
)

// Outcome is what Run produced for one job.
type Outcome struct {
	// Result is the coloring pass: the plain run, or the winning entrant's
	// run of a portfolio race (its peak covering every lane).
	Result *picasso.Result
	// Refine is the palette-refinement pass over Result (nil when the spec
	// has no refine block).
	Refine *picasso.RefineStats
	// Portfolio is the race (nil unless the spec has a portfolio block).
	Portfolio *picasso.PortfolioResult
	// Colors is the published coloring: refined when Refine ran.
	Colors picasso.Coloring
}

// InputOracle returns the graph a built input colors: the edge oracle
// itself, or the commutation graph of a Pauli set (BuildInput returns
// exactly one of the two).
func InputOracle(o picasso.Oracle, set *picasso.PauliSet) picasso.Oracle {
	if set != nil {
		return picasso.CommutationOracle(set)
	}
	return o
}

// Run colors a normalized spec's built input (o or set, as BuildInput
// returned them) — the one dispatch behind the CLI and the service. A
// portfolio block races entrants (refining the winner inside the race);
// otherwise resume continues a streamed run from its checkpoint, a
// streamed spec streams, and anything else colors one-shot, followed by
// the refine block's pass under its own budget when it names one. Every
// phase observes ctx.
func Run(ctx context.Context, spec Spec, o picasso.Oracle, set *picasso.PauliSet, opts picasso.Options, resume *picasso.RunState) (*Outcome, error) {
	o = InputOracle(o, set)
	ropts, refine := spec.RefineOptions()
	if n := spec.PortfolioEntrants(); n >= 2 {
		popts := picasso.PortfolioOptions{Entrants: n, Refine: ropts,
			RefineBudgetBytes: spec.RefineBudgetBytes(), NoRefine: !refine}
		pres, err := picasso.Portfolio(ctx, o, opts, popts)
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: pres.Result, Refine: pres.Refine, Portfolio: pres, Colors: pres.FinalColors()}, nil
	}

	var res *picasso.Result
	var err error
	switch {
	case resume != nil:
		res, err = picasso.ResumeStream(ctx, o, opts, resume)
	case spec.Streamed():
		res, err = picasso.Stream(ctx, o, opts)
	default:
		res, err = picasso.ColorContext(ctx, o, opts)
	}
	if err != nil {
		return nil, err
	}
	out := &Outcome{Result: res, Colors: res.Colors}
	if !refine {
		return out, nil
	}
	// Override only when the spec names a refinement budget (its own or the
	// job's): otherwise the caller's budget already in opts stands.
	if b := spec.RefineBudgetBytes(); b > 0 {
		opts.MemoryBudgetBytes = b
	}
	if out.Refine, err = picasso.Refine(ctx, o, res.Colors, opts, ropts); err != nil {
		return nil, err
	}
	out.Colors = out.Refine.Colors
	return out, nil
}
