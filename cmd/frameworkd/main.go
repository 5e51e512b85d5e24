// Command frameworkd runs the integrated Hecate–PolKA framework end to
// end on the emulated Global P4 Lab testbed: it starts all five services
// (over the in-process bus, or over a TCP broker with -broker), warms up
// telemetry, trains the optimizer, then admits a sequence of flows whose
// placements it reports, along with a dashboard view of per-tunnel
// telemetry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/telemetry"
)

func main() {
	model := flag.String("model", "RFR", "Hecate regressor")
	broker := flag.Bool("broker", false, "run the services over a TCP message broker instead of in-process")
	flows := flag.Int("flows", 4, "number of flows to admit")
	flag.Parse()
	if err := run(context.Background(), *model, *broker, *flows); err != nil {
		fmt.Fprintln(os.Stderr, "frameworkd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, model string, useBroker bool, nFlows int) error {
	cfg := controlplane.FrameworkConfig{
		Netem:          netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 40},
		Hecate:         hecate.Config{Lag: 10, Horizon: 10, Model: model},
		RequestTimeout: 30 * time.Second,
	}
	if useBroker {
		br, err := bus.NewBroker("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer br.Close()
		client, err := bus.DialBroker(br.Addr())
		if err != nil {
			return err
		}
		defer client.Close()
		cfg.Bus = client
		fmt.Printf("message broker listening on %s\n", br.Addr())
	}
	// Broker subscriptions are synchronous (the broker acks each one
	// before Subscribe returns), so the framework is ready to serve the
	// moment NewFramework returns — no settling sleep needed.
	f, err := controlplane.NewFramework(cfg)
	if err != nil {
		return err
	}
	defer f.Stop()

	fmt.Printf("framework up: model=%s tunnels=1..3 (Global P4 Lab subset)\n", model)
	fmt.Println("warming telemetry up (30 s emulated) and training Hecate ...")
	if err := f.Warmup(ctx, "max-bandwidth", 30); err != nil {
		return err
	}

	for i := 1; i <= nFlows; i++ {
		name := fmt.Sprintf("flow%d", i)
		resp, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
			Name: name, ToS: uint8(4 * i),
		})
		if err != nil {
			return fmt.Errorf("admitting %s: %w", name, err)
		}
		fmt.Printf("  %s -> tunnel %d (%s), predicted available bandwidth %.1f Mbps\n",
			name, resp.TunnelID, resp.Path, resp.Score)
		// Let the new flow ramp and the telemetry catch up, then retrain
		// so the next decision sees the new load.
		if err := f.RunFor(ctx, 20); err != nil {
			return err
		}
		if err := f.Control.TrainHecateContext(ctx, "max-bandwidth", int(f.Emu.Now())); err != nil {
			return err
		}
	}

	fmt.Println("\ndashboard: last 5 telemetry samples per tunnel")
	for id := 1; id <= 3; id++ {
		key := telemetry.PathBandwidthKey(fmt.Sprintf("tunnel%d", id))
		vals, err := f.Dash.Telemetry(key, 5)
		if err != nil {
			return err
		}
		fmt.Printf("  tunnel%d available Mbps: ", id)
		for _, v := range vals {
			fmt.Printf("%6.2f ", v)
		}
		fmt.Println()
	}

	fmt.Println("\nflow states:")
	for _, fl := range f.Emu.Flows() {
		fmt.Printf("  %-6s rate=%6.2f Mbps  path=%s\n", fl.Spec.Name, fl.RateMbps, fl.Spec.Path)
	}

	fmt.Println("\ningress edge configuration:")
	fmt.Println(f.Polka.EdgeConfig())
	return nil
}
