// Package bus provides the message-queue fabric the framework's services
// communicate over. The paper's implementation "uses a message queue
// system to facilitate communication between its components" (Section
// V-C1); this package offers the same topic-based publish/subscribe
// semantics with two interchangeable transports: an in-process bus for
// single-binary deployments and tests, and a TCP JSON-lines broker for
// multi-process setups (see tcp.go).
package bus

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Message is one queue item: a topic, a message type within the topic, an
// optional correlation ID for request/reply exchanges, and a JSON payload.
type Message struct {
	// Topic routes the message ("controller", "telemetry", …).
	Topic string `json:"topic"`
	// Type is the message kind within a topic ("newFlow", "askHecatePath").
	Type string `json:"type"`
	// CorrelationID ties replies to requests.
	CorrelationID string `json:"correlation_id,omitempty"`
	// ReplyTo, when set on a request, names the topic the requester
	// listens on — its private inbox (see Requester). A service that
	// honours it publishes the reply there instead of on its shared reply
	// topic.
	ReplyTo string `json:"reply_to,omitempty"`
	// Payload is the message body, JSON-encoded.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// EncodePayload marshals v into a message payload.
func EncodePayload(v interface{}) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("bus: encoding payload: %w", err)
	}
	return b, nil
}

// DecodePayload unmarshals a message payload into v.
func DecodePayload(m Message, v interface{}) error {
	if err := json.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("bus: decoding %s/%s payload: %w", m.Topic, m.Type, err)
	}
	return nil
}

// Bus is the transport-independent pub/sub interface.
type Bus interface {
	// Publish enqueues the message for all current subscribers of its
	// topic. Publishing to a topic with no subscribers is not an error.
	Publish(m Message) error
	// Subscribe returns a channel of messages on the topic and a cancel
	// function that releases the subscription and closes the channel.
	Subscribe(topic string) (<-chan Message, func(), error)
	// Close shuts the bus down; subsequent publishes fail.
	Close() error
}

// ErrClosed is returned when using a closed bus.
var ErrClosed = errors.New("bus: closed")

// subscriberBuffer is each subscription's channel capacity. A full
// subscriber makes Publish fail loudly rather than block the control
// plane or drop silently.
const subscriberBuffer = 256

// InProc is the in-process Bus: goroutine-safe topic fan-out over
// buffered channels.
type InProc struct {
	mu sync.Mutex
	// subs lists each topic's subscriptions in subscription (ID) order,
	// which is the order Publish delivers in.
	subs   map[string][]subscription
	nextID int
	closed bool
}

type subscription struct {
	id int
	ch chan Message
}

// NewInProc creates an in-process bus.
func NewInProc() *InProc {
	return &InProc{subs: make(map[string][]subscription)}
}

// Publish implements Bus. Every subscriber of the topic with room gets
// the message, in subscription order; if some were full, the error names
// them after the others have been served.
func (b *InProc) Publish(m Message) error {
	if m.Topic == "" {
		return errors.New("bus: message needs a topic")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	var full []string
	for _, sub := range b.subs[m.Topic] {
		select {
		case sub.ch <- m:
		default:
			full = append(full, strconv.Itoa(sub.id))
		}
	}
	if full != nil {
		return fmt.Errorf("bus: subscriber %s on %q is full (capacity %d)", strings.Join(full, ", "), m.Topic, subscriberBuffer)
	}
	return nil
}

// Subscribe implements Bus.
func (b *InProc) Subscribe(topic string) (<-chan Message, func(), error) {
	if topic == "" {
		return nil, nil, errors.New("bus: empty topic")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, ErrClosed
	}
	ch := make(chan Message, subscriberBuffer)
	b.nextID++
	id := b.nextID
	b.subs[topic] = append(b.subs[topic], subscription{id: id, ch: ch})
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		subs := b.subs[topic]
		for i, sub := range subs {
			if sub.id != id {
				continue
			}
			copy(subs[i:], subs[i+1:])
			subs[len(subs)-1] = subscription{}
			if subs = subs[:len(subs)-1]; len(subs) > 0 {
				b.subs[topic] = subs
			} else {
				delete(b.subs, topic) // inbox topics come and go
			}
			close(sub.ch)
			return
		}
	}
	return ch, cancel, nil
}

// Close implements Bus: all subscriber channels are closed.
func (b *InProc) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for topic, subs := range b.subs {
		for _, sub := range subs {
			close(sub.ch)
		}
		delete(b.subs, topic)
	}
	return nil
}
