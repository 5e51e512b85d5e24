package controlplane

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Controller orchestrates the path-allocation sequence of Fig. 4: for
// every newFlow it pulls recent telemetry for each candidate tunnel from
// the Telemetry Service, consults the Hecate Service for the optimal path,
// and instructs the PolKA Service to establish (or retarget) the tunnel
// binding.
type Controller struct {
	loop    *serviceLoop
	client  *client
	tunnels []candidate
	lag     int
}

// candidate is one tunnel flows may be placed on, with the names the
// controller uses for it on the wire, built once.
type candidate struct {
	id int
	// name is the tunnel's telemetry name, "tunnel<id>".
	name string
	// bandwidthKey, rttKey and utilKey are its telemetry series.
	bandwidthKey, rttKey, utilKey string
}

// ControllerConfig tunes the controller.
type ControllerConfig struct {
	// TunnelIDs lists the candidate tunnels flows may be placed on.
	TunnelIDs []int
	// Lag is how many recent telemetry samples feed the optimizer (must
	// match the Hecate service's lag; the paper uses 10).
	Lag int
	// RequestTimeout bounds each downstream service call.
	RequestTimeout time.Duration
}

// NewController starts the controller on TopicController.
func NewController(b bus.Bus, cfg ControllerConfig) (*Controller, error) {
	if len(cfg.TunnelIDs) == 0 {
		return nil, fmt.Errorf("controlplane: controller needs candidate tunnels")
	}
	if cfg.Lag < 1 {
		cfg.Lag = 10
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	ids := make([]int, len(cfg.TunnelIDs))
	copy(ids, cfg.TunnelIDs)
	sort.Ints(ids)
	c := &Controller{lag: cfg.Lag}
	for _, id := range ids {
		name := tunnelName(id)
		c.tunnels = append(c.tunnels, candidate{
			id: id, name: name,
			bandwidthKey: telemetry.PathBandwidthKey(name),
			rttKey:       telemetry.PathRTTKey(name),
			utilKey:      telemetry.PathUtilKey(name),
		})
	}
	var err error
	if c.client, err = newClient(b, "controller", cfg.RequestTimeout); err != nil {
		return nil, err
	}
	if c.loop, err = startService(b, TopicController, "controller", c.handle); err != nil {
		c.client.close()
		return nil, err
	}
	return c, nil
}

// qosKey maps an objective to the telemetry series of the tunnel the
// optimizer should predict over: available bandwidth for max-bandwidth,
// probe RTT for min-latency.
func (t *candidate) qosKey(objective string) (string, error) {
	switch objective {
	case "", "max-bandwidth":
		return t.bandwidthKey, nil
	case "min-latency":
		return t.rttKey, nil
	case "min-max-utilization":
		return t.utilKey, nil
	default:
		return "", fmt.Errorf("controlplane: unknown objective %q", objective)
	}
}

// histories fetches the last n samples of every candidate tunnel's series
// for the objective (getTelemetry per tunnel), keyed by tunnel name.
func (c *Controller) histories(ctx context.Context, objective string, n int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(c.tunnels))
	for i := range c.tunnels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := &c.tunnels[i]
		key, err := t.qosKey(objective)
		if err != nil {
			return nil, err
		}
		var tr TelemetryReply
		if err := c.client.call(TopicTelemetry, MsgGetTelemetry, TelemetryQuery{Key: key, LastN: n}, &tr); err != nil {
			return nil, err
		}
		out[t.name] = tr.Values
	}
	return out, nil
}

// handle processes one newFlow request end to end.
func (c *Controller) handle(m bus.Message) (interface{}, error) {
	if m.Type != MsgNewFlow {
		return nil, fmt.Errorf("controlplane: controller got unknown message %q", m.Type)
	}
	var req FlowRequest
	if err := bus.DecodePayload(m, &req); err != nil {
		return nil, err
	}
	if req.Name == "" {
		return nil, fmt.Errorf("controlplane: flow needs a name")
	}

	tunnelID := req.PinTunnel
	score := 0.0
	if tunnelID == 0 {
		// The handler's requests are bounded by the round-trip timeout,
		// not by a context.
		histories, err := c.histories(context.Background(), req.Objective, c.lag)
		if err != nil {
			return nil, err
		}
		// askHecatePath.
		var rec PathQoSReply
		if err := c.client.call(TopicHecate, MsgAskHecatePath, PathQoSRequest{
			Objective: req.Objective, Histories: histories,
		}, &rec); err != nil {
			return nil, err
		}
		if tunnelID, err = c.tunnelIDFromName(rec.Path); err != nil {
			return nil, err
		}
		score = rec.Score
	}

	// configureTunnel.
	var conf TunnelConfigReply
	if err := c.client.call(TopicPolka, MsgConfigureTunnel, TunnelConfigRequest{
		FlowName: req.Name, TunnelID: tunnelID,
		ToS: req.ToS, DemandMbps: req.DemandMbps,
	}, &conf); err != nil {
		return nil, err
	}
	return FlowResponse{
		FlowName: req.Name,
		TunnelID: conf.TunnelID,
		Path:     conf.Path,
		Score:    score,
	}, nil
}

// tunnelIDFromName parses a candidate's name, "tunnel<id>" exactly as
// tunnelName writes it, back to its ID; anything else — trailing
// characters, a sign, leading zeros, a tunnel that is not a candidate —
// is refused.
func (c *Controller) tunnelIDFromName(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, "tunnel")
	id, err := strconv.Atoi(digits)
	if !ok || err != nil {
		return 0, fmt.Errorf("controlplane: bad tunnel name %q", name)
	}
	for i := range c.tunnels {
		if t := &c.tunnels[i]; t.id == id && t.name == name {
			return id, nil
		}
	}
	return 0, fmt.Errorf("controlplane: %q is not a candidate tunnel", name)
}

// TrainHecateContext pushes full per-tunnel telemetry histories to the
// Hecate service for model fitting. It is called once the telemetry store
// has accumulated enough history (the paper trains offline on the UQ
// trace). Training is a fan of bus round trips (one telemetry fetch per
// tunnel, one fit request), and the context is consulted before each so
// cancellation cuts the fan short.
func (c *Controller) TrainHecateContext(ctx context.Context, objective string, historyLen int) error {
	histories, err := c.histories(ctx, objective, historyLen)
	if err != nil {
		return err
	}
	return c.client.call(TopicHecate, MsgTrainModels, TrainRequest{Histories: histories}, nil)
}

// Stop shuts the controller down.
func (c *Controller) Stop() {
	c.loop.Stop()
	c.client.close()
}

// Tunnels returns the candidate tunnel IDs.
func (c *Controller) Tunnels() []int {
	out := make([]int, len(c.tunnels))
	for i, t := range c.tunnels {
		out[i] = t.id
	}
	return out
}

// pathByID is a small helper used by the framework assembly to look up a
// tunnel path; kept here so the topo import stays local to the package.
func pathByID(tunnels map[int]topo.Path, id int) (topo.Path, error) {
	p, ok := tunnels[id]
	if !ok {
		return topo.Path{}, fmt.Errorf("controlplane: unknown tunnel %d", id)
	}
	return p, nil
}
