package controlplane

import (
	"time"

	"repro/internal/bus"
)

// Dashboard is the user-facing client of the framework: it submits new
// flows to the Scheduler and reads link-occupation series from the
// Telemetry Service for "visual feedback through link occupation graphs".
// It holds no server state — just its inbox on the bus.
type Dashboard struct {
	client *client
}

// NewDashboard creates a dashboard client. Call Stop when done.
func NewDashboard(b bus.Bus, timeout time.Duration) (*Dashboard, error) {
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	c, err := newClient(b, "dashboard", timeout)
	if err != nil {
		return nil, err
	}
	return &Dashboard{client: c}, nil
}

// InsertNewFlow submits a flow request and returns the placement decision
// (the full Fig. 4 round trip).
func (d *Dashboard) InsertNewFlow(req FlowRequest) (FlowResponse, error) {
	var resp FlowResponse
	err := d.client.call(TopicScheduler, MsgInsertNewFlow, req, &resp)
	return resp, err
}

// Telemetry fetches the last n samples of a series, oldest first.
func (d *Dashboard) Telemetry(key string, n int) ([]float64, error) {
	var tr TelemetryReply
	err := d.client.call(TopicTelemetry, MsgGetTelemetry, TelemetryQuery{Key: key, LastN: n}, &tr)
	return tr.Values, err
}

// Stop releases the dashboard's inbox.
func (d *Dashboard) Stop() { d.client.close() }
