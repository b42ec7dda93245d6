package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Two -bench-json runs with the same seed must produce byte-identical
// output apart from the wall-time fields: slices are sorted and no map
// iteration order leaks into the file, so committed BENCH_*.json diffs
// stay minimal.
func TestBenchJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full driver benchmark twice")
	}
	dir := t.TempDir()
	emit := func(name string) []byte {
		path := filepath.Join(dir, name)
		if err := runBench(path, 1, 2, 3, 12, 1); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "wall_ms")
		if c, ok := m["cache"].(map[string]any); ok {
			delete(c, "cold_wall_ms")
			delete(c, "warm_wall_ms")
			delete(c, "speedup")
		}
		if s, ok := m["server"].(map[string]any); ok {
			delete(s, "server_p50_ms")
			delete(s, "server_p99_ms")
			delete(s, "telemetry_p50_ms")
			delete(s, "telemetry_p99_ms")
			delete(s, "telemetry_overhead_pct")
		}
		out, err := json.Marshal(m) // map marshaling sorts keys
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := emit("a.json"), emit("b.json")
	if string(a) != string(b) {
		t.Fatalf("bench JSON not deterministic:\n%s\n%s", a, b)
	}
}
