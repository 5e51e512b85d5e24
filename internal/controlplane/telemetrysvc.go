package controlplane

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// TelemetryService owns the time-series store and the collection agents.
// The Controller activates collection "at predefined intervals … focusing
// on metrics like flow rate and latency" (Section IV); here the collector
// is driven by the emulator's clock through scheduled events so runs are
// deterministic, and getTelemetry queries arrive over the bus.
type TelemetryService struct {
	loop      *serviceLoop
	store     *telemetry.Store
	collector *telemetry.Collector
}

// NewTelemetryService builds per-tunnel bandwidth and RTT probes over the
// emulator and starts answering getTelemetry on TopicTelemetry. Collection
// itself is started with StartCollection.
func NewTelemetryService(b bus.Bus, emu *netem.Emulator, tunnels map[int]topo.Path) (*TelemetryService, error) {
	store := telemetry.NewStore()
	// Probe registration order drives the collector's sampling order:
	// walk tunnel IDs sorted, not in map order, so runs are repeatable.
	ids := make([]int, 0, len(tunnels))
	for id := range tunnels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var probes []telemetry.Probe
	for _, id := range ids {
		id, path := id, tunnels[id]
		probes = append(probes,
			telemetry.Probe{
				Key: telemetry.PathBandwidthKey(tunnelName(id)),
				Sample: func() (float64, error) {
					return emu.PathAvailableMbps(path)
				},
			},
			telemetry.Probe{
				Key: telemetry.PathRTTKey(tunnelName(id)),
				Sample: func() (float64, error) {
					return emu.ProbeRTTms(path)
				},
			},
			telemetry.Probe{
				Key: telemetry.PathUtilKey(tunnelName(id)),
				Sample: func() (float64, error) {
					return emu.PathMaxUtilization(path)
				},
			},
		)
	}
	s := &TelemetryService{store: store, collector: telemetry.NewCollector(store, probes)}
	loop, err := startService(b, TopicTelemetry, "telemetry-service", s.handle)
	if err != nil {
		return nil, err
	}
	s.loop = loop
	return s, nil
}

// tunnelName is the canonical telemetry name for a tunnel.
func tunnelName(id int) string { return fmt.Sprintf("tunnel%d", id) }

// StartCollection schedules recurring collection on the emulator clock,
// every intervalSec seconds starting at the current time. It reschedules
// itself indefinitely; collection stops when the emulator stops stepping.
func (s *TelemetryService) StartCollection(emu *netem.Emulator, intervalSec float64) {
	if intervalSec <= 0 {
		intervalSec = 1
	}
	var tick func(*netem.Emulator)
	tick = func(e *netem.Emulator) {
		now := e.Now()
		// Collection failures surface in the series being shorter than
		// expected; probes over a live emulator cannot fail here.
		_ = s.collector.CollectAt(now)
		e.Schedule(now+intervalSec, tick)
	}
	emu.Schedule(emu.Now(), tick)
}

// Store exposes the underlying time-series store (for dashboards and
// experiment harnesses).
func (s *TelemetryService) Store() *telemetry.Store { return s.store }

// handle answers getTelemetry queries.
func (s *TelemetryService) handle(m bus.Message) (interface{}, error) {
	if m.Type != MsgGetTelemetry {
		return nil, fmt.Errorf("controlplane: telemetry service got unknown message %q", m.Type)
	}
	var q TelemetryQuery
	if err := bus.DecodePayload(m, &q); err != nil {
		return nil, err
	}
	if q.LastN <= 0 {
		q.LastN = 10
	}
	vals := s.store.LastN(q.Key, q.LastN)
	if vals == nil {
		return nil, fmt.Errorf("controlplane: no telemetry series %q", q.Key)
	}
	return TelemetryReply{Key: q.Key, Values: vals}, nil
}

// Stop shuts the service down.
func (s *TelemetryService) Stop() { s.loop.Stop() }
