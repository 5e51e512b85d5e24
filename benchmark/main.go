// Command benchmark is the repository's host-time benchmark: five
// workloads, five gated end-to-end metrics, and per-layer numbers taken
// from outside the layers. See README.md in this directory.
//
//	go run ./benchmark                      every workload, each in a child process
//	go run ./benchmark -workload control-loop -seed 2 -seconds 10 -trace 1
//	go run ./benchmark -selfcheck           two sets of passes, compared
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/dataplane"
	"repro/internal/link"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setupReps cold constructions are timed per run and setup_s is their
	// median; sized so the reps total at least 2 s on a 2-vCPU machine.
	setupReps int
	// setup builds the system under test from nothing. The inputs (host
	// pairs, demands, pin choices) come from seed; the program under test
	// only sees the generated inputs.
	setup func(seed int64, tr *tracer) (system, error)
}

var workloads = []workload{
	{
		name:      "fast-fattree8-mixed",
		why:       "smallest packets on the fast tier, so per-hop reduce and engine-round cost is everything and no link does work; half the flows bursty, half interleaved, which run-memoised batching prices differently",
		setupReps: 20,
		setup: dpSpec{
			fatTreeK: 8, perPod: 32, perFlow: 16, size: 64, mixed: true,
		}.setup,
	},
	{
		name:      "full-fattree16-sparse",
		why:       "few frames over 5120 full-tier links, each arriving at an instant of its own, so the per-step scan of every link and the per-op rebuild of their state dominate; the fast tier must not move here",
		setupReps: 10,
		setup: dpSpec{
			fatTreeK: 16, perPod: 4, perFlow: 4, size: 1500, sizeStep: 4,
			engine: dataplane.Config{LinkMode: dataplane.LinkFull, Link: link.FullConfig{QueuePkts: 64}},
		}.setup,
	},
	{
		name:      "full-lab-dense",
		why:       "the same full tier used the opposite way: a dozen links, deep queues, tail-drop and loss draws active, so per-frame queue, heap and reduce cost dominates and the link scan costs little",
		setupReps: 200,
		setup: dpSpec{
			perFlow: 1024, size: 1500,
			engine: dataplane.Config{LinkMode: dataplane.LinkFull,
				Link: link.FullConfig{QueuePkts: 768, Loss: link.Bernoulli(0.01)}},
		}.setup,
	},
	{
		name:      "control-loop",
		why:       "the paper's loop: telemetry, Hecate forecast, PolKA tunnel choice over the in-process bus, one emulated second and one flow placement per op; the packet engine does no work in it",
		setupReps: 25,
		setup:     setupControlLoop,
	},
	{
		name:      "labd-jobs",
		why:       "the job service around a small scenario, so job store, event ring, HTTP and JSON overhead is what is measured; the four workloads above bypass it",
		setupReps: 20000,
		setup:     setupLabd,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed expected.json
var expectedJSON []byte

// expectedSeed is the seed expected.json pins digests for; on other seeds
// only the per-op invariants are checked.
const expectedSeed = 1

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the run's result line: the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gcBallast is the size of the heap ballast every run holds.
const gcBallast = 64 << 20

// options select what one run does.
type options struct {
	seed   int64
	window time.Duration
	trace  bool
	// setupReps overrides the workload's own count when positive.
	setupReps int
	// traceDir receives trace-<workload>.json on a traced run.
	traceDir string
}

// runWorkload measures one workload in this process and prints every
// metric by name; the returned outcome is what the result line carries.
func runWorkload(wl workload, opt options, out io.Writer) (*outcome, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	// The systems measured keep a live heap of a few MiB, so the collector
	// would run at its 4 MiB floor, many times per op, and its pacing —
	// not the code — would set the run-to-run spread (±5 % on
	// full-lab-dense). A pointer-free ballast, which costs no mark work,
	// makes a collection run once per gcBallast bytes allocated instead,
	// as in a process with a real heap around the engine; allocation still
	// shows as alloc_bytes_per_op_plus1k and as collector time in
	// cpu_ms_per_op.
	debug.SetGCPercent(100)
	ballast := make([]byte, gcBallast)
	defer runtime.KeepAlive(ballast)
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	reps := wl.setupReps
	if opt.setupReps > 0 {
		reps = opt.setupReps
	}

	// Cold set-up, reps times; the last construction is the one driven.
	var sys system
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
		}
		root := tr.begin("driver.setup")
		t0 := time.Now()
		var err error
		sys, err = wl.setup(opt.seed, tr)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
	}
	defer sys.close()

	warm := min(500*time.Millisecond, opt.window)
	var c counts
	rate := warmUp(sys, &c, warm)
	var w, ref *window
	if opt.trace {
		// Half the time untraced for the reference rate, half traced.
		sys.setTracer(nil)
		ref = timedWindow(sys, &c, opt.window/2, rate, nil)
		sys.setTracer(tr)
		w = timedWindow(sys, &c, opt.window/2, rate, tr)
	} else {
		w = timedWindow(sys, &c, opt.window, rate, nil)
	}

	res := &outcome{Metrics: map[string]metricValue{}}
	values := map[string]float64{}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		sys.setTracer(nil)
		if err := sys.layers(tr, min(100*time.Millisecond, opt.window), values); err != nil {
			return nil, fmt.Errorf("%s: per-layer replay: %w", wl.name, err)
		}
		values["driver.op_ms_p90"] = quantile(w.lat, 0.90) / 1e6
		values["driver.op_ms_p99"] = quantile(w.lat, 0.99) / 1e6
		values["driver.gc_cycles"] = float64(w.gcCycles)
		values["driver.gc_pause_ms_total"] = float64(w.gcPause) / 1e6
		values["driver.trace_overhead_pct"] = (ref.opsPerSec()/w.opsPerSec() - 1) * 100
	} else {
		ops := float64(w.ops)
		values["setup_s"] = median(setups)
		values["ops_per_s"] = w.opsPerSec()
		values["op_ms_p50"] = quantile(w.lat, 0.5) / 1e6
		values["cpu_ms_per_op"] = float64(w.cpu) / 1e6 / ops
		values["alloc_bytes_per_op_plus1k"] = float64(w.alloc)/ops + 1024
	}

	// Output check: the digest pinned for the default seed, and the
	// per-op invariants (already counted as failures) on every seed.
	digest, err := sys.digest()
	if err != nil {
		c.fail(err)
	} else if opt.seed == expectedSeed {
		var expected map[string]string
		if err := json.Unmarshal(expectedJSON, &expected); err != nil {
			return nil, fmt.Errorf("expected.json: %w", err)
		}
		if digest != expected[wl.name] {
			c.fail(fmt.Errorf("digest mismatch:\n  got  %s\n  want %s", digest, expected[wl.name]))
		}
	}

	fmt.Fprintf(out, "workload %s  seed %d  window %.3fs  setup_reps %d  latency_samples %d  gomaxprocs %d\n",
		wl.name, opt.seed, w.wall.Seconds(), reps, len(w.lat), runtime.GOMAXPROCS(0))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !opt.trace {
			return nil, fmt.Errorf("%s: metric %s was not measured", wl.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", wl.name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "  %-38s %16.6f %s\n", d.name, v, d.unit)
		delete(values, d.name)
	}
	for name := range values {
		return nil, fmt.Errorf("%s: metric %s is not declared in metrics.go", wl.name, name)
	}
	if w.latDropped > 0 {
		fmt.Fprintf(out, "  note: %d latency samples did not fit the buffer\n", w.latDropped)
	}
	fmt.Fprintf(out, "  digest %s\n", digest)
	fmt.Fprintf(out, "  attempted %d  failed %d\n", c.attempted, c.failed)
	if c.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", c.firstErr)
	}

	if opt.trace {
		if err := writeTrace(tr, opt.traceDir, wl.name, opt.seed); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Correct = c.attempted, c.failed, c.failed == 0
	return res, nil
}

func writeTrace(tr *tracer, dir, name string, seed int64) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := tr.write(bw, name, seed); err != nil {
		return err
	}
	return bw.Flush()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", expectedSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics, tracing off")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of passes over seeds 1..passes and compare their medians")
	passes := fs.Int("passes", 5, "runs per workload in each selfcheck set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *passes < 2 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] | -selfcheck [-passes n]")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	switch {
	case *selfcheck:
		return runSelfcheck(*passes, *seconds, stdout, stderr)
	case *name == "":
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(wl, options{seed: *seed, window: window, trace: *trace == 1,
		traceDir: filepath.Join("benchmark", "out")}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
