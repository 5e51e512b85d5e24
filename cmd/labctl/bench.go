package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchstore"
	"repro/internal/scenario"
)

// parseShard parses the -shard "i/n" form into a scenario.Shard.
func parseShard(spec string) (scenario.Shard, error) {
	if spec == "" {
		return scenario.Shard{}, nil
	}
	idx, count, ok := strings.Cut(spec, "/")
	if !ok {
		return scenario.Shard{}, fmt.Errorf("-shard wants i/n (e.g. 0/2), got %q", spec)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(count)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return scenario.Shard{}, fmt.Errorf("-shard wants i/n with 0 ≤ i < n, got %q", spec)
	}
	return scenario.Shard{Index: i, Count: n}, nil
}

// benchCmd runs the suite and appends the resulting snapshot to the
// benchmark trajectory (labctl bench), or, with -merge, unions per-shard
// result files into one snapshot without running anything.
func benchCmd(ctx context.Context, stdout, errOut io.Writer, args []string) error {
	fs := newFlagSet("bench", errOut)
	var rf runFlags
	var (
		dir         = fs.String("dir", ".", "trajectory directory: the snapshot is appended as BENCH_<n>.json")
		label       = fs.String("label", "", "snapshot label (default: the file's base name)")
		merge       = fs.Bool("merge", false, "merge the positional result files into one snapshot instead of running")
		gobench     = fs.String("gobench", "", "fold `go test -bench` output from this file into the snapshot")
		gobenchOnly = fs.Bool("gobench-only", false, "snapshot only the -gobench file, without running the suite (requires -o)")
		calibrate   = fs.Bool("calibrate", false, "calibrate this host and stamp dimensionless _ratio companions next to _per_sec rates")
	)
	registerRunFlags(fs, &rf, true)
	fs.StringVar(&rf.outPath, "o", "", "write the snapshot here instead of appending to -dir")
	names, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}

	if *merge {
		if *calibrate {
			return fmt.Errorf("bench -merge -calibrate: merge inputs were measured elsewhere; calibrate in the shard runs instead")
		}
		return benchMerge(stdout, rf.outPath, *label, names)
	}
	// Calibration only means anything in the process that measured the
	// rates: a local calibration cannot normalize rates a remote backend
	// produced on different hardware.
	if *calibrate && (rf.addr != "" || rf.dispatchMode()) {
		return fmt.Errorf("bench -calibrate must run on the measuring host; with -addr/-addrs the rates come from remote backends")
	}
	if names, err = withFamily(names, rf.family); err != nil {
		return err
	}

	// A shard is a slice of a run, not a trajectory point: it may only go
	// to an explicit -o file (for bench -merge to union later), never be
	// appended to the trajectory where it would pose as a full point.
	if rf.shard != "" && rf.outPath == "" {
		return fmt.Errorf("bench -shard requires -o: a shard is not a full trajectory point (merge shards with bench -merge)")
	}
	var snap *benchstore.Snapshot
	switch {
	case *gobenchOnly:
		// A gobench-only snapshot carries no suite scenarios, so it is not
		// a trajectory point: it must go to an explicit -o file and be
		// compared against its own baseline (the gobench CI gate).
		if *gobench == "" {
			return fmt.Errorf("bench -gobench-only requires -gobench <file>")
		}
		if rf.outPath == "" {
			return fmt.Errorf("bench -gobench-only requires -o: go-bench results are not suite trajectory points")
		}
		snap = benchstore.New(*label)
	default:
		res, _, err := runSuite(ctx, names, rf, errOut)
		if err != nil {
			return err
		}
		// A partial run is not a trajectory point: refuse to record it.
		if err := res.Err(); err != nil {
			return fmt.Errorf("suite failed, no snapshot written: %w", err)
		}
		snap = benchstore.FromReports(*label, res.Reports()...)
	}
	snap.Quick = rf.quick
	snap.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	if *calibrate {
		// Normalize before folding gobench output so go-bench custom rate
		// units never grow gating ratios: their fixed -benchtime samples
		// are far noisier than the suite's scenario rates.
		rate := benchstore.CalibrateHost()
		n, err := benchstore.NormalizeRates(snap, rate)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bench: host calibration %.4g steps/sec, %d ratio metric(s) stamped\n", rate, n)
	}
	if *gobench != "" {
		if err := foldGoBench(snap, *gobench); err != nil {
			return err
		}
	}
	path := rf.outPath
	if path != "" {
		if snap.Label == "" {
			snap.Label = strings.TrimSuffix(filepath.Base(path), ".json")
		}
		if err := snap.Save(path); err != nil {
			return err
		}
	} else {
		if path, err = benchstore.AppendDir(*dir, snap); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "bench: %d scenario(s) recorded to %s\n", len(snap.Scenarios), path)
	return nil
}

// benchMerge unions per-shard result files (snapshots or suite results)
// into one snapshot written to -o.
func benchMerge(stdout io.Writer, outPath, label string, inputs []string) error {
	if outPath == "" || len(inputs) < 1 {
		return fmt.Errorf("usage: labctl bench -merge -o merged.json <shard.json...>")
	}
	snaps := make([]*benchstore.Snapshot, len(inputs))
	for i, in := range inputs {
		s, err := benchstore.LoadAny(in)
		if err != nil {
			return err
		}
		snaps[i] = s
	}
	merged, err := benchstore.Merge(snaps...)
	if err != nil {
		return err
	}
	merged.Label = label
	if merged.Label == "" {
		merged.Label = strings.TrimSuffix(filepath.Base(outPath), ".json")
	}
	if err := merged.Save(outPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bench: merged %d file(s), %d scenario(s), into %s\n",
		len(inputs), len(merged.Scenarios), outPath)
	return nil
}

// foldGoBench parses a `go test -bench` output file into the snapshot.
func foldGoBench(snap *benchstore.Snapshot, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := benchstore.ParseGoBench(snap, f)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s: no benchmark lines found", path)
	}
	return nil
}

// compareCmd diffs two trajectory points and fails on regression — the CI
// perf gate. With one file argument the baseline defaults to the newest
// BENCH_<n>.json under -dir.
func compareCmd(stdout, errOut io.Writer, args []string) error {
	fs := newFlagSet("compare", errOut)
	var (
		dir           = fs.String("dir", ".", "trajectory directory for the implicit baseline")
		threshold     = fs.Float64("threshold", 0, "relative regression tolerance (0 = default 0.10; negative = zero tolerance)")
		absEps        = fs.Float64("abs-eps", 0, "ignore changes with absolute magnitude ≤ this (zero-baseline guard)")
		ignoreMissing = fs.Bool("ignore-missing", false, "lost baseline scenarios/metrics do not fail the gate")
		outPath       = fs.String("o", "", "write the comparison to this file (.csv for CSV, JSON otherwise)")
	)
	files, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	var basePath, curPath string
	switch len(files) {
	case 1:
		curPath = files[0]
		if basePath, err = benchstore.LatestPath(*dir); err != nil {
			return err
		}
		if basePath == "" {
			return fmt.Errorf("no BENCH_<n>.json baseline under %s (run `labctl bench` first)", *dir)
		}
	case 2:
		basePath, curPath = files[0], files[1]
	default:
		return fmt.Errorf("usage: labctl compare [flags] [baseline.json] current.json")
	}
	base, err := benchstore.LoadAny(basePath)
	if err != nil {
		return err
	}
	cur, err := benchstore.LoadAny(curPath)
	if err != nil {
		return err
	}
	cmp := benchstore.Diff(base, cur, benchstore.Options{
		Threshold:     *threshold,
		AbsEps:        *absEps,
		IgnoreMissing: *ignoreMissing,
	})
	cmp.WriteText(stdout)
	if *outPath != "" {
		if err := writeComparison(*outPath, cmp); err != nil {
			return err
		}
	}
	return cmp.Err()
}

// writeComparison persists the machine-readable comparison.
func writeComparison(path string, cmp *benchstore.Comparison) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		if err := cmp.WriteCSV(f); err != nil {
			return err
		}
	} else {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cmp); err != nil {
			return err
		}
	}
	return f.Close()
}
