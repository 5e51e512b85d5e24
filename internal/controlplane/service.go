package controlplane

import (
	"fmt"
	"time"

	"repro/internal/bus"
)

// serviceLoop is the shared skeleton of every framework service: a
// subscription, a handler, and a shutdown path. Handlers return the reply
// payload (sent as MsgReturn) or an error (sent as MsgError); either way
// the correlation ID is preserved, and the reply goes to the request's
// ReplyTo — the requester's own inbox — or, for a request without one, to
// the service's shared "<topic>.reply".
type serviceLoop struct {
	name   string
	b      bus.Bus
	topic  string
	cancel func()
	done   chan struct{}
}

// startService subscribes to the topic and pumps messages through handle
// until Stop. handle runs on the service goroutine, so per-service state
// needs no locking.
func startService(b bus.Bus, topic, name string, handle func(bus.Message) (interface{}, error)) (*serviceLoop, error) {
	ch, cancel, err := b.Subscribe(topic)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %s subscribing to %q: %w", name, topic, err)
	}
	s := &serviceLoop{name: name, b: b, topic: topic, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for m := range ch {
			payload, err := handle(m)
			replyTo := m.ReplyTo
			if replyTo == "" {
				replyTo = ReplyTopic(topic)
			}
			var reply bus.Message
			var rerr error
			if err != nil {
				reply, rerr = bus.Reply(m, replyTo, MsgError, ErrorReply{Error: err.Error()})
			} else {
				reply, rerr = bus.Reply(m, replyTo, MsgReturn, payload)
			}
			if rerr != nil {
				continue // payload unencodable; nothing sensible to send
			}
			// The requester may have timed out and gone; a failed publish
			// is not fatal to the service.
			_ = s.b.Publish(reply)
		}
	}()
	return s, nil
}

// Stop unsubscribes and waits for the service goroutine to exit.
func (s *serviceLoop) Stop() {
	s.cancel()
	<-s.done
}

// client is how a service, or the dashboard, calls the services: one bus
// requester (its inbox) and the timeout of a round trip.
type client struct {
	req     *bus.Requester
	timeout time.Duration
}

// newClient opens the inbox of the named caller.
func newClient(b bus.Bus, name string, timeout time.Duration) (*client, error) {
	req, err := bus.NewRequester(b, name)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %s opening its inbox: %w", name, err)
	}
	return &client{req: req, timeout: timeout}, nil
}

// call makes one round trip to the service on topic: payload goes out as
// a msgType request; a MsgReturn reply is decoded into out (nil drops it),
// a MsgError reply comes back as an error.
func (c *client) call(topic, msgType string, payload, out interface{}) error {
	p, err := bus.EncodePayload(payload)
	if err != nil {
		return err
	}
	reply, err := c.req.Request(bus.Message{Topic: topic, Type: msgType, Payload: p}, c.timeout)
	if err != nil {
		return err
	}
	if reply.Type == MsgError {
		var e ErrorReply
		if derr := bus.DecodePayload(reply, &e); derr == nil {
			return fmt.Errorf("controlplane: %s/%s failed: %s", topic, msgType, e.Error)
		}
		return fmt.Errorf("controlplane: %s/%s failed", topic, msgType)
	}
	if out == nil {
		return nil
	}
	return bus.DecodePayload(reply, out)
}

// close releases the inbox.
func (c *client) close() { c.req.Close() }
