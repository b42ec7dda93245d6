package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rasc/internal/analysis"
)

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, work: t.TempDir(), seed: seed, parallel: 2}
}

func workloadNamed(t *testing.T, name string) *workload {
	t.Helper()
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// A perturbed expected-findings file must turn every operation into a
// failure, and the committed one must pass them all.
func TestPerturbedOracleCountsFailures(t *testing.T) {
	e := testEnv(t, 7)
	exp, err := loadExpected(filepath.Join(e.root, "ledger", "oracle", "synthetic.json"))
	if err != nil {
		t.Fatal(err)
	}
	bad := *exp
	bad.Findings = append([]finding(nil), exp.Findings...)
	bad.Findings[0].Line++

	for _, name := range []string{"commit-rerun", "edit-stream"} {
		w := workloadNamed(t, name)
		s, _, err := setupAll(w, e, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			exp        *expected
			wantFailed int
		}{{exp, 0}, {&bad, 3 + warmupOps}} {
			failed := 0
			ops := runOps(s, tc.exp, 0, 3, false, nil)
			for _, op := range ops {
				if op.failed {
					failed++
				}
			}
			if failed != tc.wantFailed {
				t.Errorf("%s: %d of %d operations failed, want %d", name, failed, len(ops), tc.wantFailed)
			}
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Two traced runs with one seed reproduce every counter marked exact.
func TestCountersRepeatExactly(t *testing.T) {
	for _, name := range []string{"commit-rerun", "edit-stream"} {
		if err := runCheckExact(workloadNamed(t, name), testEnv(t, 3)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The metric tables in the code are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	conv := func(ms []metric) []decl {
		var out []decl
		for _, m := range ms {
			out = append(out, decl{m.name, m.unit, m.better})
		}
		return out
	}
	if got := conv(endToEnd); !reflect.DeepEqual(got, bj.EndToEnd) {
		t.Errorf("end_to_end: code has %v, BENCHMARK.json %v", got, bj.EndToEnd)
	}
	if got := conv(perLayer); !reflect.DeepEqual(got, bj.PerLayer) {
		t.Errorf("per_layer: code has %v, BENCHMARK.json %v", got, bj.PerLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, code %v", names, want)
	}
}

// The per-checker fork metrics cover exactly the registry's property
// checkers.
func TestPropertyCheckersMatchRegistry(t *testing.T) {
	var got []string
	for _, c := range analysis.All() {
		if c.Run == nil {
			got = append(got, c.Name)
		}
	}
	want := map[string]bool{}
	for _, c := range propertyCheckers() {
		want[c] = true
	}
	if len(got) != len(want) {
		t.Fatalf("registry has property checkers %v, ledger %v", got, propertyCheckers())
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("registry checker %s has no pdm.fork_ms metric", c)
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(spans, 0, 100); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}
	if got := covered(spans, 8, 25); got != 12 {
		t.Errorf("clipped covered = %d, want 12", got)
	}
}

func TestChildrenNestByLaneAndTime(t *testing.T) {
	evs := []event{
		{Name: "job:a/E", TS: 0, Dur: 100, TID: 0},
		{Name: "cache.lookup", TS: 1, Dur: 9, TID: 0},
		{Name: "solve", TS: 10, Dur: 80, TID: 0},
		{Name: "skeleton:E", TS: 12, Dur: 30, TID: 1},
		{Name: "job:b/E", TS: 101, Dur: 20, TID: 0},
	}
	kids := children(evs)
	if !reflect.DeepEqual(kids[0], []int{1, 2}) || len(kids[4]) != 0 || len(kids[3]) != 0 {
		t.Fatalf("children = %v", kids)
	}
	L := map[string]float64{}
	engineLayers(evs, L)
	// The solve waited 30µs of its 80µs on the entry's skeleton build.
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(L["pdm.fork_ms.a"], 0.05) || !near(L["pdm.skeleton_ms"], 0.03) || !near(L["analysis.job_self_ms"], 0.031) {
		t.Errorf("layers = %v", L)
	}
}
