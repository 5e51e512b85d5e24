package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runChild measures one workload in a fresh process of this binary — no
// heap, pool or scheduler state is shared between workloads — and returns
// its result line. The child's report is copied to out.
func runChild(name string, seed int64, seconds float64, trace int, out, stderr io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload once and fails if any op failed.
func runAll(seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	code := 0
	for _, wl := range workloads {
		res, err := runChild(wl.name, seed, seconds, trace, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
		} else if !res.Correct {
			code = 1
		}
	}
	return code
}

// cpuModel reads the processor's name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSelfcheck is the stability evidence: two independent sets of runs of
// the same code, each over seeds 1..passes, compared the way a later
// change will be compared with its parent. It fails when a set median
// moves by more than half the metric's bound, or when any op fails.
func runSelfcheck(passes int, seconds float64, stdout, stderr io.Writer) int {
	// values[set][workload][metric] holds one value per seed.
	var values [2]map[string]map[string][]float64
	code := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for seed := int64(1); seed <= int64(passes); seed++ {
			for _, wl := range workloads {
				fmt.Fprintf(stderr, "selfcheck: set %d seed %d %s\n", set+1, seed, wl.name)
				res, err := runChild(wl.name, seed, seconds, 0, io.Discard, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(stderr, "selfcheck: %s seed %d: %d of %d ops failed\n", wl.name, seed, res.Failed, res.Attempted)
					code = 1
				}
				if values[set][wl.name] == nil {
					values[set][wl.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][wl.name][name] = append(values[set][wl.name][name], m.Value)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "# Stability of the benchmark on one commit\n\n")
	fmt.Fprintf(stdout, "Output of `go run ./benchmark -selfcheck -passes %d -seconds %g`: two independent sets of runs of the same code, each run on seeds 1..%d, every run in its own process.\n\n",
		passes, seconds, passes)
	fmt.Fprintf(stdout, "- machine: %d CPUs, %s\n- %s %s/%s, GOMAXPROCS pinned to %d\n\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, min(runtime.NumCPU(), 2))
	fmt.Fprintf(stdout, "`gap` is how far the second set's median is worse than the first's (negative: better); it must stay within half the bound. `spread` is the distance between the quartiles of a set's runs as a share of their median.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | gap | spread A | spread B | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][wl.name][d.name], values[1][wl.name][d.name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if d.better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if gap > d.bound/2 {
				verdict = "UNSTABLE"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.name, d.name, d.unit, ma, mb, gap*100, quartileSpread(a)*100, quartileSpread(b)*100, d.bound*100, verdict)
		}
	}
	if code != 0 {
		fmt.Fprintln(stdout, "\nFAILED: a set median moved by more than half its bound, or ops failed.")
	} else {
		fmt.Fprintln(stdout, "\nEvery set median stays within half its bound.")
	}
	return code
}
