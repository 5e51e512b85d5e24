package benchstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestFromReportsCarriesEnvelopeAndMetrics(t *testing.T) {
	rep := &scenario.Report{
		Scenario:        "x",
		WallSeconds:     1.5,
		EmulatedSeconds: 30,
		Metrics:         map[string]float64{"aggregate_mbps": 12},
	}
	s := FromReports("run", rep, nil) // nil reports are skipped
	got := s.Scenarios["x"]
	if got["wall_seconds"] != 1.5 || got["emulated_seconds"] != 30 || got["aggregate_mbps"] != 12 {
		t.Fatalf("snapshot = %+v", s.Scenarios)
	}
	if s.Version != SchemaVersion || s.Label != "run" {
		t.Fatalf("envelope = %+v", s)
	}
}

func TestSaveLoadRoundTripIsStable(t *testing.T) {
	dir := t.TempDir()
	s := New("seed")
	s.Add("b", "m2", 2)
	s.Add("b", "m1", 1)
	s.Add("a", "m", 0.5)
	path := filepath.Join(dir, "BENCH_0.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scenarios["b"]["m2"] != 2 || loaded.Label != "seed" {
		t.Fatalf("round trip lost data: %+v", loaded)
	}
	// Byte-identical re-save: the trajectory diffs cleanly under git.
	path2 := filepath.Join(dir, "again.json")
	if err := loaded.Save(path2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if string(a) != string(b) {
		t.Fatalf("re-save not byte-identical:\n%s\nvs\n%s", a, b)
	}
}

func TestLoadRejectsNewerSchemaAndNonSnapshots(t *testing.T) {
	dir := t.TempDir()
	newer := filepath.Join(dir, "BENCH_9.json")
	os.WriteFile(newer, []byte(`{"version": 99, "scenarios": {}}`), 0o644)
	if _, err := Load(newer); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("newer schema accepted: %v", err)
	}
	bogus := filepath.Join(dir, "bogus.json")
	os.WriteFile(bogus, []byte(`{"hello": 1}`), 0o644)
	if _, err := Load(bogus); err == nil {
		t.Fatal("non-snapshot accepted by Load")
	}
}

func TestLoadAnySniffsEveryResultShape(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Snapshot document.
	snapPath := write("BENCH_0.json", `{"version":1,"scenarios":{"x":{"m":1}}}`)
	// Suite result (labctl suite -o).
	suite := scenario.SuiteResult{Outcomes: []scenario.Outcome{{
		Scenario: "x",
		Report:   &scenario.Report{Scenario: "x", WallSeconds: 1, Metrics: map[string]float64{"m": 2}},
	}}}
	suiteJSON, _ := json.Marshal(&suite)
	suitePath := write("bench_results.json", string(suiteJSON))
	// Bare report (labctl run -o) and a report array.
	repPath := write("rep.json", `{"scenario":"x","wall_seconds":1,"metrics":{"m":3}}`)
	arrPath := write("reps.json", `[{"scenario":"x","wall_seconds":1,"metrics":{"m":4}}]`)

	for path, want := range map[string]float64{snapPath: 1, suitePath: 2, repPath: 3, arrPath: 4} {
		s, err := LoadAny(path)
		if err != nil {
			t.Fatalf("LoadAny(%s): %v", path, err)
		}
		if s.Scenarios["x"]["m"] != want {
			t.Errorf("LoadAny(%s): m = %v, want %v", path, s.Scenarios["x"]["m"], want)
		}
	}

	// A partial suite run is not a trajectory point.
	partial := scenario.SuiteResult{Failed: 1, Outcomes: []scenario.Outcome{{Scenario: "x", Error: "boom"}}}
	partialJSON, _ := json.Marshal(&partial)
	partialPath := write("partial.json", string(partialJSON))
	if _, err := LoadAny(partialPath); err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("partial suite result accepted: %v", err)
	}
	// Unrecognized documents fail loudly.
	if _, err := LoadAny(write("junk.json", `{"foo": 1}`)); err == nil {
		t.Fatal("unrecognized document accepted")
	}
}

func TestScanAppendDirNumbering(t *testing.T) {
	dir := t.TempDir()
	if latest, err := LatestPath(dir); err != nil || latest != "" {
		t.Fatalf("empty trajectory: latest=%q err=%v", latest, err)
	}
	// First append seeds BENCH_0; gaps don't confuse the numbering — the
	// next point is always max+1.
	p0, err := AppendDir(dir, New("a"))
	if err != nil || filepath.Base(p0) != "BENCH_0.json" {
		t.Fatalf("first append = %q, %v", p0, err)
	}
	os.WriteFile(filepath.Join(dir, "BENCH_7.json"), []byte(`{"version":1,"scenarios":{}}`), 0o644)
	os.WriteFile(filepath.Join(dir, "BENCH_x.json"), []byte(`junk`), 0o644) // ignored: not a number
	p8, err := AppendDir(dir, New("b"))
	if err != nil || filepath.Base(p8) != "BENCH_8.json" {
		t.Fatalf("append after gap = %q, %v", p8, err)
	}
	entries, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ns []int
	for _, e := range entries {
		ns = append(ns, e.N)
	}
	if len(ns) != 3 || ns[0] != 0 || ns[1] != 7 || ns[2] != 8 {
		t.Fatalf("trajectory order = %v, want [0 7 8]", ns)
	}
	if latest, _ := LatestPath(dir); filepath.Base(latest) != "BENCH_8.json" {
		t.Fatalf("latest = %q", latest)
	}
}

func TestMergeShardSnapshots(t *testing.T) {
	a := New("shard0")
	a.Add("x", "m", 1)
	b := New("shard1")
	b.Add("y", "m", 2)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Scenarios["x"]["m"] != 1 || merged.Scenarios["y"]["m"] != 2 {
		t.Fatalf("merged = %+v", merged.Scenarios)
	}
	// The merged point is independent of its inputs.
	b.Scenarios["y"]["m"] = 99
	if merged.Scenarios["y"]["m"] != 2 {
		t.Fatal("merge aliases input maps")
	}
	// Overlapping shards are an error, not a silent last-wins.
	dup := New("shard1-again")
	dup.Add("x", "m", 3)
	if _, err := Merge(a, dup); err == nil {
		t.Fatal("overlapping shard merge accepted")
	}
	// Quick and full runs cannot merge into one point.
	q := New("quick")
	q.Quick = true
	q.Add("z", "m", 1)
	if _, err := Merge(a, q); err == nil {
		t.Fatal("quick/full merge accepted")
	}
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := Merge(nil, nil); err == nil {
		t.Fatal("all-nil merge accepted")
	}
	// Nil inputs are skipped, even in first position.
	if m, err := Merge(nil, a); err != nil || m.Scenarios["x"]["m"] != 1 {
		t.Fatalf("nil-first merge: %+v, %v", m, err)
	}
	// The envelope comes from the first non-empty input, so an empty
	// shard (an oversharded CI slot) in front of quick shards neither
	// poisons Quick nor trips the mismatch check.
	empty := New("empty-slot")
	if m, err := Merge(empty, q); err != nil || !m.Quick || m.Label != "quick" {
		t.Fatalf("empty-first merge: %+v, %v", m, err)
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkDataplane/serial-8         	     500	      2049 ns/op	       0 B/op	       0 allocs/op
BenchmarkDataplane/sharded-8        	    1000	       912 ns/op	      16 B/op	       1 allocs/op
BenchmarkHeaderRoundTrip-8          	 5000000	       231.5 ns/op
some test log line
PASS
ok  	repro	12.3s
`
	s := New("bench")
	n, err := ParseGoBench(s, strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("parsed %d lines, want 3", n)
	}
	serial := s.Scenarios[GoBenchPrefix+"Dataplane/serial"]
	if serial["ns_per_op"] != 2049 || serial["bytes_per_op"] != 0 || serial["allocs_per_op"] != 0 || serial["iterations"] != 500 {
		t.Fatalf("serial = %+v", serial)
	}
	if s.Scenarios[GoBenchPrefix+"HeaderRoundTrip"]["ns_per_op"] != 231.5 {
		t.Fatalf("round trip = %+v", s.Scenarios)
	}
	// Pseudo-scenarios are namespaced away from registry names.
	for name := range s.Scenarios {
		if !strings.HasPrefix(name, GoBenchPrefix) {
			t.Fatalf("unnamespaced go-bench scenario %q", name)
		}
	}
}

func TestParseGoBenchKeepsCollidingNamesApart(t *testing.T) {
	// Under GOMAXPROCS=1 go test appends no "-P" tag, so a benchmark name
	// that legitimately ends in "-<digits>" would collide with a sibling
	// after tag stripping; colliding lines keep their original names.
	out := `BenchmarkPool/shards-2 	 100	 50 ns/op
BenchmarkPool/shards-4 	 100	 30 ns/op
BenchmarkPool/serial-8 	 100	 90 ns/op
`
	s := New("bench")
	if _, err := ParseGoBench(s, strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	if s.Scenarios[GoBenchPrefix+"Pool/shards-2"]["ns_per_op"] != 50 ||
		s.Scenarios[GoBenchPrefix+"Pool/shards-4"]["ns_per_op"] != 30 {
		t.Fatalf("colliding names merged: %+v", s.Scenarios)
	}
	// The non-colliding sibling still gets the usual tag stripping.
	if s.Scenarios[GoBenchPrefix+"Pool/serial"]["ns_per_op"] != 90 {
		t.Fatalf("tag not stripped from unique name: %+v", s.Scenarios)
	}
}
