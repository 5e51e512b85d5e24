package bus

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// correlationCounter generates process-unique correlation IDs.
var correlationCounter atomic.Int64

// NewCorrelationID returns a fresh correlation ID.
func NewCorrelationID() string {
	return "c" + strconv.FormatInt(correlationCounter.Add(1), 10)
}

// Requester is the synchronous request/reply idiom of the sequence
// diagram (askHecatePath → return, configureTunnel → return) for a caller
// that makes many requests: it subscribes once to an inbox topic of its
// own, stamps that topic into every request's ReplyTo, and waits on it for
// the reply carrying the request's correlation ID. A service that honours
// ReplyTo therefore answers this caller alone, where replies on a shared
// "<topic>.reply" reach every requester of the service, and a request
// costs two publishes and no subscription.
//
// One request is in flight at a time; concurrent callers queue.
type Requester struct {
	b      Bus
	inbox  string
	ch     <-chan Message
	cancel func()

	mu sync.Mutex // serialises Request
}

// processTag tells this process's inbox topics from those of the other
// processes on a shared broker.
var processTag = sync.OnceValue(func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "pid" + strconv.Itoa(os.Getpid())
	}
	return hex.EncodeToString(b[:])
})

var inboxCounter atomic.Int64

// NewRequester subscribes to a fresh inbox topic, "<name>.inbox.<unique>";
// name only labels it (the caller's role, say "controller"). Close
// releases the subscription.
func NewRequester(b Bus, name string) (*Requester, error) {
	return newRequester(b, fmt.Sprintf("%s.inbox.%s-%d", name, processTag(), inboxCounter.Add(1)))
}

func newRequester(b Bus, inbox string) (*Requester, error) {
	ch, cancel, err := b.Subscribe(inbox)
	if err != nil {
		return nil, err
	}
	return &Requester{b: b, inbox: inbox, ch: ch, cancel: cancel}, nil
}

// Request publishes req, with ReplyTo set to the inbox and a fresh
// correlation ID unless it carries one, and waits up to timeout for the
// reply with that ID. Anything else found in the inbox — the late reply to
// an earlier request that timed out — is discarded. It returns ErrClosed
// once the bus or the requester is closed.
func (r *Requester) Request(req Message, timeout time.Duration) (Message, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if req.CorrelationID == "" {
		req.CorrelationID = NewCorrelationID()
	}
	req.ReplyTo = r.inbox
	if err := r.b.Publish(req); err != nil {
		return Message{}, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-r.ch:
			if !ok {
				return Message{}, ErrClosed
			}
			if m.CorrelationID == req.CorrelationID {
				return m, nil
			}
		case <-deadline.C:
			return Message{}, fmt.Errorf("bus: request %s/%s timed out after %v waiting on %q",
				req.Topic, req.Type, timeout, r.inbox)
		}
	}
}

// Close releases the inbox subscription; a request in flight returns
// ErrClosed. Closing twice is harmless.
func (r *Requester) Close() { r.cancel() }

// Request makes one request on a throw-away Requester whose inbox is
// replyTopic: for a caller with a single request to make, or a service
// that answers on a fixed topic and ignores ReplyTo. The subscription is
// created before the publish, so the reply cannot be lost to a race.
func Request(b Bus, req Message, replyTopic string, timeout time.Duration) (Message, error) {
	r, err := newRequester(b, replyTopic)
	if err != nil {
		return Message{}, err
	}
	defer r.Close()
	return r.Request(req, timeout)
}

// Reply constructs the reply message for a request: same correlation ID,
// addressed to the given topic.
func Reply(req Message, topic, msgType string, payload interface{}) (Message, error) {
	p, err := EncodePayload(payload)
	if err != nil {
		return Message{}, err
	}
	return Message{
		Topic:         topic,
		Type:          msgType,
		CorrelationID: req.CorrelationID,
		Payload:       p,
	}, nil
}
