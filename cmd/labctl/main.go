// Command labctl is the one CLI over the unified scenario API
// (internal/scenario): every experiment — the paper's figures, the
// extension soaks, the packet-level data-plane runs, the link-tier
// sweeps — is a registered scenario, and labctl lists, describes, and
// runs them with uniform config and output handling. It replaces the
// former labdemo, mlcompare, dataplanedemo, and rldemo binaries.
//
//	labctl list                                  all registered scenarios
//	labctl describe mlcompare                    description + default config JSON
//	labctl run packetlevel -o out.json           one scenario, Report as JSON
//	labctl run -quick latencymigration failover  several scenarios, serially
//	labctl run throttlesweep -config grid.json   loss×RTT goodput grid (link tier)
//	labctl suite -quick -o bench_results.json    every scenario (CI bench seed)
//	labctl suite -quick -shard 0/2               deterministic half of the suite
//	labctl suite -parallel 4 -timeout 10m fct workload
//	labctl bench -quick                          run suite, append BENCH_<n>.json
//	labctl bench -merge -o merged.json s0.json s1.json
//	labctl compare BENCH_0.json merged.json      perf gate: nonzero on regression
//
// bench and compare maintain the benchmark trajectory (internal/
// benchstore): numbered BENCH_<n>.json snapshots diffed per
// scenario/metric with direction-aware regression thresholds — see
// docs/report-schema.md for the schemas and the CI wiring.
//
// -config file.json overlays per-scenario settings onto the defaults:
//
//	{"packetlevel": {"PacketsPerRoute": 100000}, "workload": {"Base": {"Seed": 7}}}
//
// -o writes machine-readable results; a .csv extension selects long-form
// CSV (scenario,metric,value), anything else stable JSON. An interrupt
// (Ctrl-C) cancels the in-flight scenario promptly via its context.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers every lab scenario and family
	"repro/internal/scenario"
	"repro/internal/scengen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "labctl:", err)
		os.Exit(1)
	}
}

// runFlags are the options shared by the run, suite, and bench
// subcommands.
type runFlags struct {
	configPath string
	outPath    string
	quick      bool
	verbose    bool
	timeout    time.Duration
	parallel   int
	failFast   bool
	shard      string
	family     string
	addr       string
	addrs      string
	addrsFile  string
}

// newFlagSet returns a continue-on-error flag set writing to errOut.
func newFlagSet(name string, errOut io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	return fs
}

// registerRunFlags registers the options shared by run, suite, and bench
// in one place so the subcommands cannot drift apart; suiteMode adds the
// multi-scenario scheduling flags. -o is registered by each caller: its
// meaning differs per subcommand.
func registerRunFlags(fs *flag.FlagSet, rf *runFlags, suiteMode bool) {
	fs.StringVar(&rf.configPath, "config", "", "JSON file with per-scenario config overlays")
	fs.BoolVar(&rf.quick, "quick", false, "use each scenario's quick (smoke) configuration")
	fs.BoolVar(&rf.verbose, "v", false, "stream scenario progress to stderr")
	fs.DurationVar(&rf.timeout, "timeout", 0, "per-scenario timeout (0 = none)")
	fs.StringVar(&rf.addr, "addr", "", "submit to the labd daemon at this address instead of running in-process")
	fs.StringVar(&rf.addrs, "addrs", "", "comma-separated labd backends: dispatch the suite across every healthy backend and merge the results")
	fs.StringVar(&rf.addrsFile, "addrs-file", "", "file listing labd backends (whitespace separated, # comments), same as -addrs")
	fs.StringVar(&rf.family, "family", "", "also select every scenario of this generated family (see labctl list)")
	if suiteMode {
		fs.IntVar(&rf.parallel, "parallel", 1, "scenarios run concurrently")
		fs.BoolVar(&rf.failFast, "failfast", false, "stop the suite at the first failure")
		fs.StringVar(&rf.shard, "shard", "", "run only slice i of n (i/n) of the suite")
	}
}

// run dispatches one labctl invocation; stdout carries results, errOut
// carries progress logs.
func run(args []string, stdout, errOut io.Writer) error {
	if len(args) == 0 {
		usage(stdout)
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		return list(stdout, errOut, rest)
	case "bench":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		return benchCmd(ctx, stdout, errOut, rest)
	case "compare":
		return compareCmd(stdout, errOut, rest)
	case "describe":
		if len(rest) != 1 {
			return fmt.Errorf("usage: labctl describe <scenario>")
		}
		return describe(stdout, rest[0])
	case "run", "suite":
		fs := newFlagSet(cmd, errOut)
		var rf runFlags
		registerRunFlags(fs, &rf, cmd == "suite")
		fs.StringVar(&rf.outPath, "o", "", "write results to this file (.csv for CSV, JSON otherwise)")
		names, err := parseInterleaved(fs, rest)
		if err != nil {
			return err
		}
		if names, err = withFamily(names, rf.family); err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if cmd == "run" {
			if len(names) == 0 {
				return fmt.Errorf("usage: labctl run [flags] <scenario...>")
			}
			return runScenarios(ctx, stdout, errOut, names, rf)
		}
		return runSuiteCmd(ctx, stdout, errOut, names, rf)
	case "help", "-h", "--help":
		usage(stdout)
		return nil
	default:
		usage(stdout)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// withFamily appends a generated family's member scenarios to the
// explicitly named ones — the -family selector shared by run, suite,
// and bench. Members expand in the family's canonical sorted order, so
// -family composes with -shard the same way an explicit name list does.
func withFamily(names []string, family string) ([]string, error) {
	if family == "" {
		return names, nil
	}
	members, err := scengen.Expand(family)
	if err != nil {
		return nil, err
	}
	return append(names, members...), nil
}

// parseInterleaved parses args allowing flags and positionals in any
// order (`labctl run packetlevel -o out.json`), which the flag package's
// stop-at-first-positional rule would otherwise reject. It returns the
// positional arguments in order.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return positional, nil
		}
		positional = append(positional, args[0])
		args = args[1:]
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `labctl — unified scenario runner

  labctl list [-md] [-all] [-family F] list scenarios (families as one summary row)
  labctl describe <scenario>           description and default config JSON
  labctl run [flags] <scenario...>     run scenarios serially, fail fast
  labctl suite [flags] [scenario...]   run a suite (default: all scenarios)
  labctl bench [flags] [scenario...]   run suite, append BENCH_<n>.json snapshot
  labctl bench -merge -o out.json <shard.json...>   union shard results
  labctl compare [flags] [base.json] <current.json> diff snapshots, fail on regression

run/suite flags: -config file.json -o results.json|.csv -quick -timeout 10m -v
                 -family F adds every cell of a generated family, e.g.
                 labctl suite -quick -family fattreesweep
suite flags:     -parallel N -failfast -shard i/n
bench flags:     suite flags plus -dir DIR -label L -gobench bench.txt
compare flags:   -threshold 0.1 -abs-eps X -ignore-missing -dir DIR -o out.json|.csv
remote mode:     -addr host:port submits run/suite/bench to a labd daemon
                 (same flags, artifacts, and exit codes; see docs/labd-api.md)
fleet mode:      -addrs a,b,c (or -addrs-file F) dispatches run/suite/bench
                 across several labd daemons: backends pull scenario-granular
                 work units, so fast machines take more and a straggler never
                 gates the suite (same artifacts and exit codes)
`)
}

// list prints the registry, one scenario per line, or as a markdown
// table (-md) — the form README.md's scenario table is generated from.
// Generated families collapse to one summary row with a cell count
// (hundreds of cells would otherwise drown the table); -all expands
// them inline and -family X lists exactly one family's cells.
func list(w, errOut io.Writer, args []string) error {
	fs := newFlagSet("list", errOut)
	md := fs.Bool("md", false, "emit a markdown table (the README scenario table)")
	all := fs.Bool("all", false, "expand generated families instead of one summary row each")
	family := fs.String("family", "", "list only this generated family's cells")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenarios := scenario.List()
	if len(scenarios) == 0 {
		return fmt.Errorf("no scenarios registered")
	}
	type row struct{ name, display, describe string }
	var rows []row
	if *family != "" {
		members, err := scengen.Expand(*family)
		if err != nil {
			return err
		}
		for _, name := range members {
			s, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			rows = append(rows, row{name: name, display: name, describe: s.Describe()})
		}
	} else {
		emitted := make(map[string]bool)
		for _, s := range scenarios {
			fam, generated := scengen.FamilyOf(s.Name())
			if !generated || *all {
				rows = append(rows, row{name: s.Name(), display: s.Name(), describe: s.Describe()})
				continue
			}
			if emitted[fam] {
				continue
			}
			emitted[fam] = true
			reg, err := scengen.Lookup(fam)
			if err != nil {
				return err
			}
			rows = append(rows, row{
				name:     fam,
				display:  fmt.Sprintf("%s (%d cells)", fam, len(reg.Members)),
				describe: reg.Describe + " — run with -family " + fam,
			})
		}
	}
	if *md {
		fmt.Fprintln(w, "| Scenario | What it runs |")
		fmt.Fprintln(w, "| --- | --- |")
		for _, r := range rows {
			fmt.Fprintf(w, "| `%s` | %s |\n", r.display, r.describe)
		}
		return nil
	}
	width := 18
	for _, r := range rows {
		if len(r.display) > width {
			width = len(r.display)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %s\n", width, r.display, r.describe)
	}
	return nil
}

func describe(w io.Writer, name string) error {
	s, err := scenario.Lookup(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s — %s\n\ndefault config:\n", s.Name(), s.Describe())
	if err := printConfigJSON(w, s.DefaultConfig()); err != nil {
		return err
	}
	if q, ok := s.(scenario.QuickConfiger); ok {
		fmt.Fprintf(w, "\nquick config (-quick):\n")
		return printConfigJSON(w, q.QuickConfig())
	}
	return nil
}

func printConfigJSON(w io.Writer, cfg any) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// loadConfigs reads the per-scenario overlay file.
func loadConfigs(path string) (map[string]json.RawMessage, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	configs := make(map[string]json.RawMessage)
	if err := json.Unmarshal(data, &configs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for name := range configs {
		if _, err := scenario.Lookup(name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return configs, nil
}

// env builds the scenario environment. -v wires the Progress hook (not
// Log — Logf forwards to Progress, so both would double-print), which
// also carries the suite runner's start/done/failed/skipped markers;
// local and remote -v therefore render the same event stream.
func env(errOut io.Writer, rf runFlags) *scenario.Env {
	e := &scenario.Env{Quick: rf.quick}
	if rf.verbose {
		e.Progress = func(p scenario.Progress) {
			renderProgress(errOut, p.Scenario, p.Phase, p.Message)
		}
	}
	return e
}

// renderProgress prints one progress event; the shared form local -v
// and remote event streaming both use.
func renderProgress(w io.Writer, scenarioName, phase, message string) {
	switch {
	case scenarioName == "" && message == "":
		fmt.Fprintf(w, "job: %s\n", phase)
	case scenarioName == "":
		fmt.Fprintf(w, "job: %s: %s\n", phase, message)
	case message == "":
		fmt.Fprintf(w, "[%s] %s\n", scenarioName, phase)
	default:
		fmt.Fprintf(w, "[%s] %s: %s\n", scenarioName, phase, message)
	}
}

// runScenarios is `labctl run`: the named scenarios as one serial
// fail-fast suite — the interactive workflow. Reports render in order and
// the first failure is the command's error. With one scenario and -o, the
// output file is the bare Report (the machine-readable contract of
// `labctl run X -o out`).
func runScenarios(ctx context.Context, stdout, errOut io.Writer, names []string, rf runFlags) error {
	rf.parallel, rf.failFast = 1, true
	res, raw, err := runSuite(ctx, names, rf, errOut)
	if err != nil {
		return err
	}
	var reports []*scenario.Report
	for _, o := range res.Outcomes {
		if o.Error != "" || o.Skipped {
			break
		}
		reports = append(reports, o.Report)
	}
	for _, rep := range reports {
		renderReport(stdout, rep)
	}
	if len(reports) < len(res.Outcomes) {
		o := res.Outcomes[len(reports)]
		if o.Skipped {
			return fmt.Errorf("scenario %s skipped before running", o.Scenario)
		}
		return fmt.Errorf("scenario %s: %s", o.Scenario, o.Error)
	}
	if rf.outPath == "" {
		return nil
	}
	raws, err := rawReports(raw)
	if err != nil {
		return err
	}
	if len(raws) == 1 {
		return writeOut(rf.outPath, raws[0], reports)
	}
	return writeOut(rf.outPath, joinRawArray(raws), reports)
}

// runSuite executes one suite-shaped request where the flags say — in
// this process, as a job on the labd daemon at -addr, or dispatched
// across the -addrs fleet — and is the only place labctl chooses between
// the three, so run, suite and bench share flags, artifacts, exit codes
// and Ctrl-C handling. It hands back the typed result (for rendering and
// exit codes) and the result's JSON bytes (for -o): the daemon's own
// bytes in the remote modes, never decoded and re-encoded, and the
// same encoding of the typed result in-process, so an artifact is
// byte-identical whichever way it ran, modulo measured wall time. The
// error is non-nil only when no result exists (pre-flight
// problems, an unreachable fleet, a cancellation before any work);
// per-scenario failures live in the result.
func runSuite(ctx context.Context, names []string, rf runFlags, errOut io.Writer) (*scenario.SuiteResult, json.RawMessage, error) {
	switch {
	case rf.dispatchMode():
		return dispatchSuite(ctx, names, rf, errOut)
	case rf.addr != "":
		return remoteSuite(ctx, names, rf, errOut)
	}
	configs, err := loadConfigs(rf.configPath)
	if err != nil {
		return nil, nil, err
	}
	shard, err := parseShard(rf.shard)
	if err != nil {
		return nil, nil, err
	}
	res, err := scenario.RunSuite(ctx, names, scenario.SuiteOptions{
		Parallel: rf.parallel,
		Timeout:  rf.timeout,
		FailFast: rf.failFast,
		Quick:    rf.quick,
		Configs:  configs,
		Shard:    shard,
		Env:      env(errOut, rf),
	})
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding the suite result: %w", err)
	}
	return res, raw, nil
}

// runSuiteCmd executes the suite (all scenarios when names is empty) and
// always reports every outcome.
func runSuiteCmd(ctx context.Context, stdout, errOut io.Writer, names []string, rf runFlags) error {
	res, raw, err := runSuite(ctx, names, rf, errOut)
	if err != nil {
		return err
	}
	for _, o := range res.Outcomes {
		switch {
		case o.Skipped:
			fmt.Fprintf(stdout, "=== %s: SKIPPED\n", o.Scenario)
		case o.Error != "":
			fmt.Fprintf(stdout, "=== %s: FAILED: %s\n", o.Scenario, o.Error)
		default:
			renderReport(stdout, o.Report)
		}
	}
	fmt.Fprintf(stdout, "suite: %d scenarios, %d failed, %d skipped\n",
		len(res.Outcomes), res.Failed, res.Skipped)
	if rf.outPath != "" {
		if err := writeOut(rf.outPath, raw, res.Reports()); err != nil {
			return err
		}
	}
	return res.Err()
}

// writeOut persists results: jsonValue for JSON output, the report list
// for CSV. The encoder re-indents raw JSON at the token level, key order
// preserved, so raw result bytes reach the file undecoded.
func writeOut(path string, jsonValue any, reports []*scenario.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		if err := scenario.WriteCSV(f, reports...); err != nil {
			return err
		}
	} else {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonValue); err != nil {
			return err
		}
	}
	return f.Close()
}

// renderReport prints one report's human summary: envelope line, then the
// metrics in sorted order.
func renderReport(w io.Writer, rep *scenario.Report) {
	fmt.Fprintf(w, "=== %s (%.2fs wall", rep.Scenario, rep.WallSeconds)
	if rep.EmulatedSeconds > 0 {
		fmt.Fprintf(w, ", %.0fs emulated", rep.EmulatedSeconds)
	}
	fmt.Fprintln(w, ")")
	names := rep.MetricNames()
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-*s %g\n", width, n, rep.Metrics[n])
	}
}
