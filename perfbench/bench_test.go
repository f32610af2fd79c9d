package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"picasso"
)

// benchmarkFile is the part of ../BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func units(names []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	m := make(map[string]string)
	for _, n := range names {
		m[n.Name] = n.Unit
	}
	return m
}

func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, want map[string]string) {
		if len(defs) != len(want) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(want))
		}
		for _, d := range defs {
			if u, ok := want[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] in code, BENCHMARK.json has [%s] (present %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, units(bf.EndToEnd))
	check("per_layer", perLayer, units(bf.PerLayer))
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
}

// tiny shrinks a workload to a test-sized one with the same shape: the bare
// molecule Hamiltonian (1,675 strings) instead of the Table II instance.
func tiny(w workload) workload {
	w.bare = true
	w.warmOps = 2
	w.replayJobs = 2
	switch {
	case w.disk:
		w.subset, w.cacheJobs, w.minAge, w.prefix, w.warmOps = 80, 4, 8, 16, 8
	case w.budget != "":
		w.budget, w.prefix = "512KiB", 4
	default:
		w.prefix = 4
	}
	return w
}

// serveBin builds picasso-serve into a test directory.
func serveBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "picasso-serve")
	out, err := exec.Command("go", "build", "-o", bin, "picasso/cmd/picasso-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building picasso-serve: %v\n%s", err, out)
	}
	return bin
}

func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	bin := serveBin(t)
	bf := readBenchmarkFile(t)
	for _, trace := range []bool{false, true} {
		want := units(bf.EndToEnd)
		if trace {
			want = units(bf.PerLayer)
		}
		for _, name := range workloadNames() {
			cfg := config{
				workload: tiny(workloads[name]), seed: 7, seconds: 0.3, trace: trace,
				serveBin: bin, outDir: t.TempDir(),
			}
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for n, m := range res.Metrics {
				if u, ok := want[n]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: reported %s [%s], BENCHMARK.json has [%s] (present %v)", name, trace, n, m.Unit, u, ok)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			} else if !strings.Contains(out.String(), "nproc=") {
				t.Errorf("%s: the environment line is missing", name)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was not refused")
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
	if _, err := percentile(samples(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
}

func TestVerificationCatchesCorruptGrouping(t *testing.T) {
	in, err := generate(tiny(workloads["pauli_oneshot"]), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := picasso.ColorPauli(in.set, picasso.Normal(3))
	if err != nil {
		t.Fatal(err)
	}
	groups := picasso.ColorGroups(res.Colors)
	if err := verifyGroups(in.set, groups); err != nil {
		t.Fatalf("a correct grouping failed: %v", err)
	}
	clone := func() [][]int {
		c := make([][]int, len(groups))
		for i, g := range groups {
			c[i] = append([]int(nil), g...)
		}
		return c
	}

	// Moving a string into a group it conflicts with must be caught.
	caught := false
	for j := 1; j < len(groups) && !caught; j++ {
		bad := clone()
		u := bad[0][0]
		bad[0] = bad[0][1:]
		bad[j] = append(bad[j], u)
		caught = verifyGroups(in.set, bad) != nil
	}
	if !caught {
		t.Error("no move of a string into another group was caught")
	}
	dup := clone()
	dup[1] = append(dup[1], dup[0][0])
	if verifyGroups(in.set, dup) == nil {
		t.Error("a string in two groups was not caught")
	}
	lost := clone()
	lost[0] = lost[0][1:]
	if verifyGroups(in.set, lost) == nil {
		t.Error("a string in no group was not caught")
	}
	if sameGroups(groups, lost) || !sameGroups(groups, clone()) {
		t.Error("sameGroups does not compare group for group")
	}
}
