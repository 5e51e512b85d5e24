package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestListShowsAllPortedScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"failover", "fct", "flowaggregation", "latencymigration",
		"mlcompare", "mlpredict", "multipath", "packetlevel", "workload",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestDescribeEmitsConfigJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"describe", "packetlevel"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PacketsPerRoute") {
		t.Errorf("describe output missing config field:\n%s", out.String())
	}
	if err := run([]string{"describe", "nope"}, &out, &out); err == nil {
		t.Error("describe of unknown scenario succeeded")
	}
}

func TestRunEmitsReportJSON(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run([]string{"run", "-quick", "-o", outPath, "multipath"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not a Report: %v\n%s", err, data)
	}
	if rep.Scenario != "multipath" || len(rep.Metrics) == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}

	// The acceptance form — flags after the scenario name — must parse
	// identically.
	outPath2 := filepath.Join(t.TempDir(), "out2.json")
	if err := run([]string{"run", "multipath", "-quick", "-o", outPath2}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outPath2); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithConfigOverlay(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(cfgPath, []byte(`{"packetlevel": {"PacketsPerRoute": 7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	if err := run([]string{"run", "-config", cfgPath, "-o", outPath, "packetlevel"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// 7 packets on each of the 5 routes, one of them a 2-leaf multicast.
	if rep.Metrics["delivered"] != 42 {
		t.Errorf("delivered = %v, want 42 (7 pkts x 5 routes + 7 extra multicast leaves)", rep.Metrics["delivered"])
	}

	// Typo'd scenario name in the overlay fails pre-flight.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"packetlvl": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-config", bad, "packetlevel"}, &out, &out); err == nil {
		t.Error("unknown scenario in config file accepted")
	}
}

func TestSuiteCSVOutput(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "out.csv")
	var out bytes.Buffer
	if err := run([]string{"suite", "-quick", "-o", outPath, "multipath", "packetlevel"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "scenario,metric,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(string(data), "multipath,aggregate_mbps") {
		t.Errorf("CSV missing multipath metrics:\n%s", data)
	}
	if !strings.Contains(out.String(), "suite: 2 scenarios, 0 failed, 0 skipped") {
		t.Errorf("suite summary missing:\n%s", out.String())
	}
}

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"frobnicate"}, &out, &out); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run(nil, &out, &out); err == nil {
		t.Error("missing command accepted")
	}
}
