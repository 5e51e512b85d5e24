package controlplane

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/hecate"
	"repro/internal/netem"
)

// requestRaw sends an arbitrary message to a service topic and returns
// the reply.
func requestRaw(t *testing.T, b bus.Bus, topic, msgType string, payload interface{}) bus.Message {
	t.Helper()
	p, err := bus.EncodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := bus.Request(b, bus.Message{Topic: topic, Type: msgType, Payload: p},
		ReplyTopic(topic), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestServicesRejectUnknownMessageTypes(t *testing.T) {
	f := newLabFramework(t)
	for _, topic := range []string{TopicPolka, TopicTelemetry, TopicHecate, TopicController, TopicScheduler} {
		reply := requestRaw(t, f.Bus, topic, "bogusMessage", map[string]string{})
		if reply.Type != MsgError {
			t.Errorf("topic %s accepted a bogus message: %+v", topic, reply)
		}
		var e ErrorReply
		if err := bus.DecodePayload(reply, &e); err != nil || !strings.Contains(e.Error, "unknown message") {
			t.Errorf("topic %s error = %+v, %v", topic, e, err)
		}
	}
}

func TestServicesRejectMalformedPayloads(t *testing.T) {
	f := newLabFramework(t)
	// A payload that does not decode into the expected struct type.
	bad := []interface{}{1, 2, 3}
	for _, c := range []struct{ topic, msgType string }{
		{TopicPolka, MsgConfigureTunnel},
		{TopicTelemetry, MsgGetTelemetry},
		{TopicHecate, MsgAskHecatePath},
		{TopicController, MsgNewFlow},
		{TopicScheduler, MsgInsertNewFlow},
	} {
		reply := requestRaw(t, f.Bus, c.topic, c.msgType, bad)
		if reply.Type != MsgError {
			t.Errorf("%s/%s accepted malformed payload", c.topic, c.msgType)
		}
	}
}

func TestReplyTopicNaming(t *testing.T) {
	if got := ReplyTopic("polka"); got != "polka.reply" {
		t.Errorf("ReplyTopic = %q", got)
	}
}

// TestServiceAnswersOnReplyToOrSharedTopic pins the reply-addressing
// contract of serviceLoop: a request carrying ReplyTo is answered there
// and nowhere else; one without is answered on "<topic>.reply".
func TestServiceAnswersOnReplyToOrSharedTopic(t *testing.T) {
	f := newLabFramework(t)
	shared, cancelShared, err := f.Bus.Subscribe(ReplyTopic(TopicTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	defer cancelShared()
	inbox, cancelInbox, err := f.Bus.Subscribe("test.inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer cancelInbox()
	p, err := bus.EncodePayload(TelemetryQuery{Key: "no-such-series", LastN: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv := func(ch <-chan bus.Message) bus.Message {
		t.Helper()
		select {
		case m := <-ch:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
			return bus.Message{}
		}
	}

	if err := f.Bus.Publish(bus.Message{Topic: TopicTelemetry, Type: MsgGetTelemetry,
		CorrelationID: "to-inbox", ReplyTo: "test.inbox", Payload: p}); err != nil {
		t.Fatal(err)
	}
	if m := recv(inbox); m.CorrelationID != "to-inbox" || m.Type != MsgError || m.Topic != "test.inbox" {
		t.Errorf("inbox got %+v", m)
	}
	if err := f.Bus.Publish(bus.Message{Topic: TopicTelemetry, Type: MsgGetTelemetry,
		CorrelationID: "to-shared", Payload: p}); err != nil {
		t.Fatal(err)
	}
	// The shared topic's first message is the second request's reply: the
	// first went to the inbox alone.
	if m := recv(shared); m.CorrelationID != "to-shared" || m.Type != MsgError {
		t.Errorf("shared reply topic got %+v", m)
	}
	select {
	case m := <-inbox:
		t.Errorf("inbox also got %+v", m)
	default:
	}
}

// publishCounter counts publishes on the bus it wraps.
type publishCounter struct {
	bus.Bus
	n atomic.Int64
}

func (c *publishCounter) Publish(m bus.Message) error {
	c.n.Add(1)
	return c.Bus.Publish(m)
}

// TestInsertCostsFourteenMessages: an optimizer-placed flow is seven
// round trips (scheduler, controller, one telemetry query per tunnel,
// Hecate, PolKA) at one request and one reply each — no subscribe traffic,
// no broadcast copies; a pinned flow skips telemetry and Hecate.
func TestInsertCostsFourteenMessages(t *testing.T) {
	inner := bus.NewInProc()
	defer inner.Close()
	counter := &publishCounter{Bus: inner}
	f, err := NewFramework(FrameworkConfig{
		Bus:    counter,
		Netem:  netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 100},
		Hecate: hecate.Config{Lag: 10, Horizon: 10, Model: "LR"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	warmup(t, f, "max-bandwidth", 30)

	before := counter.n.Load()
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "flow1", ToS: 4}); err != nil {
		t.Fatal(err)
	}
	if got := counter.n.Load() - before; got != 14 {
		t.Errorf("an unpinned insert published %d messages, want 14", got)
	}
	before = counter.n.Load()
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "flow2", ToS: 8, PinTunnel: 2}); err != nil {
		t.Fatal(err)
	}
	if got := counter.n.Load() - before; got != 6 {
		t.Errorf("a pinned insert published %d messages, want 6", got)
	}
}

func TestTunnelIDFromName(t *testing.T) {
	b := bus.NewInProc()
	defer b.Close()
	c, err := NewController(b, ControllerConfig{TunnelIDs: []int{3, 1, 12}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, tc := range []struct {
		name string
		id   int // 0: must be refused
	}{
		{"tunnel1", 1}, {"tunnel3", 3}, {"tunnel12", 12},
		{"tunnel2", 0},  // not a candidate
		{"tunnel2x", 0}, // Sscanf("tunnel%d") read this as 2
		{"tunnel1x", 0}, // … and this as the candidate 1
		{"tunnel1 ", 0}, {"tunnel", 0}, {"tunnel-1", 0}, {"tunnel+1", 0}, {"tunnel01", 0},
		{"tunnel1.0", 0}, {"Tunnel1", 0}, {"xtunnel1", 0}, {"1", 0}, {"", 0},
		{"tunnel99999999999999999999", 0},
	} {
		id, err := c.tunnelIDFromName(tc.name)
		if tc.id == 0 && err == nil {
			t.Errorf("tunnelIDFromName(%q) = %d, want an error", tc.name, id)
		}
		if tc.id != 0 && (err != nil || id != tc.id) {
			t.Errorf("tunnelIDFromName(%q) = %d, %v; want %d", tc.name, id, err, tc.id)
		}
	}
}
