package controlplane

import (
	"fmt"
	"time"

	"repro/internal/bus"
)

// Scheduler receives flow requests from the Dashboard (insertNewFlow) and
// notifies the Controller of the intent to establish a new connection
// (newFlow), returning the Controller's placement decision to the caller.
// In the paper's architecture the scheduler is also where admission and
// timing policy would live; here it validates and forwards.
type Scheduler struct {
	loop   *serviceLoop
	client *client
}

// NewScheduler starts the scheduler on TopicScheduler.
func NewScheduler(b bus.Bus, timeout time.Duration) (*Scheduler, error) {
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	s := &Scheduler{}
	var err error
	if s.client, err = newClient(b, "scheduler", timeout); err != nil {
		return nil, err
	}
	if s.loop, err = startService(b, TopicScheduler, "scheduler", s.handle); err != nil {
		s.client.close()
		return nil, err
	}
	return s, nil
}

// handle forwards insertNewFlow to the controller as newFlow.
func (s *Scheduler) handle(m bus.Message) (interface{}, error) {
	if m.Type != MsgInsertNewFlow {
		return nil, fmt.Errorf("controlplane: scheduler got unknown message %q", m.Type)
	}
	var req FlowRequest
	if err := bus.DecodePayload(m, &req); err != nil {
		return nil, err
	}
	if req.Name == "" {
		return nil, fmt.Errorf("controlplane: flow needs a name")
	}
	if req.DemandMbps < 0 {
		return nil, fmt.Errorf("controlplane: flow %q has negative demand", req.Name)
	}
	var resp FlowResponse
	if err := s.client.call(TopicController, MsgNewFlow, req, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Stop shuts the scheduler down.
func (s *Scheduler) Stop() {
	s.loop.Stop()
	s.client.close()
}
