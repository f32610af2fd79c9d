package jobspec

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"picasso"
	"picasso/internal/core"
	"picasso/internal/pauli"
)

// TestRunMatchesDirectCalls pins the dispatch: for both input kinds and
// every schedule, Run's coloring is bit-identical to the engine call the
// spec describes, made directly.
func TestRunMatchesDirectCalls(t *testing.T) {
	strs := pauli.RandomSet(8, 500, rand.New(rand.NewSource(5))).Strings()
	inputs := map[string]Spec{
		"pauli":  {Strings: strs, Seed: 3},
		"oracle": {Random: "600:0.5", Seed: 3},
	}
	ctx := context.Background()
	for kind, base := range inputs {
		oneShot := base
		stream := base
		stream.Shard = 200
		refine := base
		refine.Refine = &RefineSpec{Rounds: 3}
		race := base
		race.Shard = 200
		race.Portfolio = &PortfolioSpec{Entrants: 2}

		cases := []struct {
			name   string
			spec   Spec
			resume bool
			direct func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error)
		}{
			{"one-shot", oneShot, false, func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error) {
				res, err := core.ColorContext(ctx, o, opts)
				if err != nil {
					return nil, err
				}
				return res.Colors, nil
			}},
			{"stream", stream, false, func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error) {
				res, err := core.Stream(ctx, o, opts)
				if err != nil {
					return nil, err
				}
				return res.Colors, nil
			}},
			{"resume", stream, true, func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error) {
				res, err := core.ResumeStream(ctx, o, opts, firstCheckpoint(t, o, opts))
				if err != nil {
					return nil, err
				}
				return res.Colors, nil
			}},
			{"refine", refine, false, func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error) {
				res, err := core.ColorContext(ctx, o, opts)
				if err != nil {
					return nil, err
				}
				st, err := core.Refine(ctx, o, res.Colors, opts, core.RefineOptions{Rounds: 3})
				if err != nil {
					return nil, err
				}
				return st.Colors, nil
			}},
			{"portfolio", race, false, func(o picasso.Oracle, opts picasso.Options) (picasso.Coloring, error) {
				pres, err := core.Portfolio(ctx, o, opts, core.PortfolioOptions{Entrants: 2, NoRefine: true})
				if err != nil {
					return nil, err
				}
				return pres.FinalColors(), nil
			}},
		}
		for _, c := range cases {
			spec := c.spec
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			o, set, err := spec.BuildInput()
			if err != nil {
				t.Fatal(err)
			}
			g := InputOracle(o, set)
			want, err := c.direct(g, spec.Options())
			if err != nil {
				t.Fatalf("%s/%s: direct: %v", kind, c.name, err)
			}
			var resume *picasso.RunState
			if c.resume {
				resume = firstCheckpoint(t, g, spec.Options())
			}
			out, err := Run(ctx, spec, o, set, spec.Options(), resume)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", kind, c.name, err)
			}
			if !slices.Equal(out.Colors, want) {
				t.Errorf("%s/%s: Run's coloring differs from the direct call", kind, c.name)
			}
			if (out.Refine != nil) != (c.name == "refine") || (out.Portfolio != nil) != (c.name == "portfolio") {
				t.Errorf("%s/%s: outcome reports refine %v, portfolio %v", kind, c.name, out.Refine != nil, out.Portfolio != nil)
			}
			if err := picasso.Verify(g, out.Colors); err != nil {
				t.Errorf("%s/%s: %v", kind, c.name, err)
			}
		}
	}
}

// firstCheckpoint streams o and returns the snapshot of its first shard
// boundary.
func firstCheckpoint(t *testing.T, o picasso.Oracle, opts picasso.Options) *picasso.RunState {
	t.Helper()
	var first *picasso.RunState
	opts.Checkpoint = func(st picasso.RunState) {
		if first == nil {
			first = &st
		}
	}
	if _, err := core.Stream(context.Background(), o, opts); err != nil {
		t.Fatal(err)
	}
	if first == nil || !first.Resumable() {
		t.Fatal("no resumable first-shard checkpoint")
	}
	return first
}

// TestRunRefineObservesContext cancels the context the moment the first
// pass has colored every vertex. Without a refine block the run still
// succeeds — the cancellation lands after the pass's last stage boundary —
// so with one, the context.Canceled Run returns comes from the refine
// phase: refinement is bounded by the caller's context (the CLI's
// -deadline) like every other phase.
func TestRunRefineObservesContext(t *testing.T) {
	for _, refine := range []bool{false, true} {
		spec := Spec{Random: "800:0.5", Seed: 2}
		if refine {
			spec.Refine = &RefineSpec{}
		}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		o, set, err := spec.BuildInput()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		opts := spec.Options()
		opts.Progress = func(st picasso.IterStats) {
			if st.Uncolored == 0 {
				cancel()
			}
		}
		_, err = Run(ctx, spec, o, set, opts, nil)
		cancel()
		switch {
		case !refine && err != nil:
			t.Fatalf("first pass did not finish before the cancellation: %v", err)
		case refine && !errors.Is(err, context.Canceled):
			t.Fatalf("refine phase returned %v, want context.Canceled", err)
		}
	}
}
