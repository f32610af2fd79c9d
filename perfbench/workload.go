package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"picasso"
	tableii "picasso/internal/workload"
)

// workload is one traffic mix against the service. Inputs are Pauli strings
// of one Table II molecule; the service only ever sees them as inline
// "strings" payloads, never as a molecule name.
type workload struct {
	name     string
	molecule string // Table II instance that generates the string pool
	bare     bool   // use the bare Hamiltonian instead of the Table II term count
	subset   int    // strings per job drawn from the pool (0 = the whole pool)

	budget       string // per-job memory budget: the job streams under it ("" = one-shot)
	refineRounds int    // inline refine round cap (0 = no refine)

	disk      bool // artifact dir + journal armed on a fresh directory
	cacheJobs int  // server result LRU size, in jobs; small, so memory plateaus
	clients   int  // closed-loop client goroutines in the timed phase

	warmOps  int // set-up operations run before timing, from two clients
	hitEvery int // every hitEvery-th operation of a client resubmits a finished job
	minAge   int // a resubmitted job finished at least this many new jobs earlier
	prefix   int // colors and peak_tracked_bytes use the first prefix jobs (always run)

	replayJobs int // jobs the traced mode replays through the layers
}

// defaultBudget is the server-wide per-job budget (-budget). Specs without a
// budget stay one-shot; the budget only arms the tracker, so every job's
// summary reports the tracked peak (the paper's Table IV quantity).
const defaultBudget = 1 << 30

var workloads = map[string]workload{
	// The paper's headline path: one-shot Normal-mode coloring of a whole
	// Table II instance; the conflict build dominates.
	"pauli_oneshot": {
		name: "pauli_oneshot", molecule: "H6 2D sto3g",
		cacheJobs: 8, clients: 1,
		warmOps: 2, hitEvery: 2, prefix: 16, replayJobs: 4,
	},
	// The memory-bounded quality pipeline: streamed under 8 MiB (budget-driven
	// shard sizing, fixed-color pass), then inline refine capped at 4 rounds.
	"pauli_budget": {
		name: "pauli_budget", molecule: "H6 2D sto3g",
		budget: "8MiB", refineRounds: 4,
		cacheJobs: 8, clients: 1,
		warmOps: 2, hitEvery: 2, prefix: 8, replayJobs: 3,
	},
	// The disk tier under fixed per-job costs: small jobs, two clients, a
	// small LRU, so resubmissions are answered from persisted artifacts.
	"serve_disk": {
		name: "serve_disk", molecule: "H6 2D sto3g", subset: 400,
		disk: true, cacheJobs: 16, clients: 2,
		warmOps: 96, hitEvery: 3, minAge: 64, prefix: 256, replayJobs: 48,
	},
}

// inputs are the generated strings of one run.
type inputs struct {
	w      workload
	seed   int64
	pool   []string
	set    *picasso.PauliSet // the whole pool, parsed
	poolJS json.RawMessage   // the whole pool as a JSON array
}

func generate(w workload, seed int64) (*inputs, error) {
	target := 0
	if !w.bare {
		inst, err := tableii.Lookup(w.molecule)
		if err != nil {
			return nil, err
		}
		target = inst.TargetTerms()
	}
	set, err := picasso.BuildMolecule(w.molecule, target)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.molecule, err)
	}
	pool := make([]string, set.Len())
	for i := range pool {
		pool[i] = set.At(i).String()
	}
	js, err := json.Marshal(pool)
	if err != nil {
		return nil, err
	}
	return &inputs{w: w, seed: seed, pool: pool, set: set, poolJS: js}, nil
}

// job is one generated job: its request body and the Pauli set it colors.
type job struct {
	body []byte
	set  *picasso.PauliSet
}

type specBody struct {
	Strings json.RawMessage `json:"strings"`
	Seed    int64           `json:"seed"`
	Budget  string          `json:"budget,omitempty"`
	Refine  *refineBody     `json:"refine,omitempty"`
}

type refineBody struct {
	Rounds int `json:"rounds"`
}

// jobSeed derives job index's seed from the workload seed (splitmix64,
// kept below 2^53 so it survives any JSON reader).
func jobSeed(seed int64, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9 + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 11)
}

// job builds job index: the same (workload seed, index) always gives the
// same strings and the same spec seed.
func (in *inputs) job(index int) (job, error) {
	seed := jobSeed(in.seed, index)
	b := specBody{Strings: in.poolJS, Seed: seed, Budget: in.w.budget}
	if in.w.refineRounds > 0 {
		b.Refine = &refineBody{Rounds: in.w.refineRounds}
	}
	set := in.set
	if in.w.subset > 0 && in.w.subset < len(in.pool) {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(index)))
		seen := make(map[int]bool, in.w.subset)
		picked := make([]int, 0, in.w.subset)
		for len(picked) < in.w.subset {
			if p := rng.IntN(len(in.pool)); !seen[p] {
				seen[p] = true
				picked = append(picked, p)
			}
		}
		sort.Ints(picked)
		strs := make([]string, len(picked))
		for i, p := range picked {
			strs[i] = in.pool[p]
		}
		js, err := json.Marshal(strs)
		if err != nil {
			return job{}, err
		}
		b.Strings = js
		if set, err = picasso.ParsePauliStrings(strs); err != nil {
			return job{}, err
		}
	}
	body, err := json.Marshal(b)
	if err != nil {
		return job{}, err
	}
	return job{body: body, set: set}, nil
}
