package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// portedScenarios is the contract of this PR: every experiment entrypoint
// reachable through the registry.
var portedScenarios = []string{
	"bufferbloat",
	"failover",
	"fct",
	"flowaggregation",
	"latencymigration",
	"mlcompare",
	"mlpredict",
	"multipath",
	"packetlevel",
	"rstinject",
	"throttlesweep",
	"workload",
}

func TestAllScenariosRegistered(t *testing.T) {
	for _, name := range portedScenarios {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if s.Describe() == "" {
			t.Errorf("%s has no description", name)
		}
		if s.DefaultConfig() == nil {
			t.Errorf("%s has no default config", name)
		}
	}
}

// TestDefaultConfigsGolden pins every scenario's default configuration as
// JSON: a drift in any default shows up as a readable diff here, and the
// same bytes prove the configs survive a JSON round trip (what labctl
// -config files rely on).
func TestDefaultConfigsGolden(t *testing.T) {
	configs := make(map[string]any, len(portedScenarios))
	for _, name := range portedScenarios {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		configs[name] = s.DefaultConfig()
	}
	got, err := json.MarshalIndent(configs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "default_configs.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("default configs drifted from golden file (run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Round trip: overlaying a config's own JSON onto the default must
	// reproduce it exactly.
	for _, name := range portedScenarios {
		s, _ := scenario.Lookup(name)
		raw, err := json.Marshal(s.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := scenario.DecodeConfig(s.DefaultConfig(), raw)
		if err != nil {
			t.Errorf("%s: decoding its own default config: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(back, s.DefaultConfig()) {
			t.Errorf("%s: config did not round-trip:\n%#v\n%#v", name, back, s.DefaultConfig())
		}
	}
}

// TestQuickConfigsDeriveFromDefaults guards the config-drift fix: quick
// variants must decode as overlays of the same type as the default, and
// the testbed quick config must agree with the canonical defaults on
// everything it does not deliberately shrink.
func TestQuickConfigsDeriveFromDefaults(t *testing.T) {
	for _, name := range portedScenarios {
		s, _ := scenario.Lookup(name)
		quick := scenario.BaseConfig(s, true)
		if reflect.TypeOf(quick) != reflect.TypeOf(s.DefaultConfig()) {
			t.Errorf("%s: quick config is %T, default is %T", name, quick, s.DefaultConfig())
		}
	}
	def, quick := DefaultTestbedConfig(), QuickTestbedConfig()
	if quick.SampleIntervalSec != def.SampleIntervalSec || quick.WarmupSec != def.WarmupSec {
		t.Errorf("QuickTestbedConfig drifted from DefaultTestbedConfig: %+v vs %+v", quick, def)
	}
}

// TestPacketLevelReportRoundTrip is the acceptance check behind
// `labctl run packetlevel -o out.json`: the emitted Report must survive a
// JSON round trip byte-for-byte.
func TestPacketLevelReportRoundTrip(t *testing.T) {
	s, err := scenario.Lookup("packetlevel")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.BaseConfig(s, true)
	rep, err := scenario.Execute(context.Background(), nil, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "packetlevel" || rep.Metrics["delivered"] == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Report
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	// No data may be lost: both documents must decode to the same value
	// (the typed payload serializes in struct order, the round-tripped one
	// in sorted key order, so raw bytes differ while content must not).
	var a, b any
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("report lost data across a round trip:\n%s\n%s", first, second)
	}
	// And once in canonical (generic) form, marshaling is byte-stable.
	var again scenario.Report
	if err := json.Unmarshal(second, &again); err != nil {
		t.Fatal(err)
	}
	third, err := json.Marshal(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, third) {
		t.Fatalf("canonical report JSON not byte-stable:\n%s\n%s", second, third)
	}
}

// TestScenarioCancellation proves Run returns promptly once the context
// is canceled, for a long emulator-driven scenario and for the
// packet-level engine.
func TestScenarioCancellation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(s scenario.Scenario) any
	}{
		{"workload", func(s scenario.Scenario) any {
			cfg := s.DefaultConfig().(WorkloadSuiteConfig)
			cfg.Base.DurationSec = 100000 // would take minutes without cancellation
			cfg.Policies = []WorkloadPolicy{PolicyStatic}
			return cfg
		}},
		{"latencymigration", func(s scenario.Scenario) any {
			cfg := s.DefaultConfig().(TestbedConfig)
			cfg.Model = "LR"
			cfg.Phase1Sec = 100000
			return cfg
		}},
		{"packetlevel", func(s scenario.Scenario) any {
			cfg := s.DefaultConfig().(PacketLevelConfig)
			cfg.PacketsPerRoute = 500000
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.Lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = scenario.Execute(ctx, nil, s, tc.cfg(s))
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("Run took %v after cancellation", elapsed)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// TestSuiteQuickSmoke runs the fast scenarios through the suite runner in
// parallel — the same path CI's `labctl suite -quick` exercises.
func TestSuiteQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke is not short")
	}
	res, err := scenario.RunSuite(context.Background(),
		[]string{"multipath", "packetlevel", "mlpredict"},
		scenario.SuiteOptions{Quick: true, Parallel: 2, Timeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Report == nil || len(o.Report.Metrics) == 0 {
			t.Errorf("%s: empty report", o.Scenario)
		}
	}
}
