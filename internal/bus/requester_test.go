package bus

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// transports runs a Requester test on the in-process bus and over the TCP
// broker; newBus returns a bus connected to the same fabric on each call.
func transports(t *testing.T, test func(t *testing.T, newBus func() Bus)) {
	t.Run("inproc", func(t *testing.T) {
		b := NewInProc()
		t.Cleanup(func() { _ = b.Close() })
		test(t, func() Bus { return b })
	})
	t.Run("tcp", func(t *testing.T) {
		br, err := NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = br.Close() })
		test(t, func() Bus {
			c, err := DialBroker(br.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			return c
		})
	})
}

// serve answers every request on topic with its own payload, on the
// request's ReplyTo, after handing it to before (which may delay it).
func serve(t *testing.T, b Bus, topic string, before func(Message)) {
	t.Helper()
	ch, cancel, err := b.Subscribe(topic)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range ch {
			if before != nil {
				before(req)
			}
			// A closed bus under test fails the publish; the requester's
			// own assertion reports it.
			_ = b.Publish(Message{Topic: req.ReplyTo, Type: "return",
				CorrelationID: req.CorrelationID, Payload: req.Payload})
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestRequestersSeeOnlyTheirOwnReplies: many requesters hammer one
// service at once, each from a goroutine of its own; every reply must be
// the echo of the request that requester just made.
func TestRequestersSeeOnlyTheirOwnReplies(t *testing.T) {
	transports(t, func(t *testing.T, newBus func() Bus) {
		serve(t, newBus(), "svc", nil)
		const requesters, requests = 8, 50
		var wg sync.WaitGroup
		for i := 0; i < requesters; i++ {
			r, err := NewRequester(newBus(), fmt.Sprintf("caller%d", i))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < requests; n++ {
					want, err := EncodePayload(fmt.Sprintf("caller %d request %d", i, n))
					if err != nil {
						t.Error(err)
						return
					}
					reply, err := r.Request(Message{Topic: "svc", Type: "echo", Payload: want}, 10*time.Second)
					if err != nil {
						t.Error(err)
						return
					}
					if string(reply.Payload) != string(want) || reply.Topic != r.inbox {
						t.Errorf("caller %d got %s on %q, want %s on its inbox %q", i, reply.Payload, reply.Topic, want, r.inbox)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
}

// TestRequesterSharedByGoroutines: concurrent callers of one Requester
// queue behind each other and still get their own replies.
func TestRequesterSharedByGoroutines(t *testing.T) {
	transports(t, func(t *testing.T, newBus func() Bus) {
		serve(t, newBus(), "svc", nil)
		r, err := NewRequester(newBus(), "shared")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					want, _ := EncodePayload([2]int{i, n})
					reply, err := r.Request(Message{Topic: "svc", Type: "echo", Payload: want}, 10*time.Second)
					if err != nil || string(reply.Payload) != string(want) {
						t.Errorf("goroutine %d got %s, %v; want %s", i, reply.Payload, err, want)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
}

// TestRequesterDiscardsLateReply: the reply to a request that timed out
// arrives in the inbox afterwards; the next request must skip it and
// return its own.
func TestRequesterDiscardsLateReply(t *testing.T) {
	transports(t, func(t *testing.T, newBus func() Bus) {
		release := make(chan struct{})
		serve(t, newBus(), "svc", func(req Message) {
			if req.Type == "slow" {
				<-release
			}
		})
		r, err := NewRequester(newBus(), "caller")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		first, _ := EncodePayload("first")
		_, err = r.Request(Message{Topic: "svc", Type: "slow", Payload: first}, 50*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("slow request = %v, want a timeout", err)
		}
		// The service now answers the first request, then the second: the
		// late reply is in the inbox ahead of the wanted one.
		close(release)
		second, _ := EncodePayload("second")
		reply, err := r.Request(Message{Topic: "svc", Type: "echo", Payload: second}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Payload) != string(second) {
			t.Errorf("second request got %s, the late reply to the first", reply.Payload)
		}
	})
}

// TestRequesterOnClosedBus: publishing on a closed bus, waiting on an
// inbox the bus closed under the request, and using a closed requester
// all report ErrClosed.
func TestRequesterOnClosedBus(t *testing.T) {
	b := NewInProc()
	r, err := NewRequester(b, "caller")
	if err != nil {
		t.Fatal(err)
	}
	// Nobody serves "svc": the request waits until the bus goes away.
	got := make(chan error, 1)
	go func() {
		_, err := r.Request(Message{Topic: "svc", Type: "ping"}, 10*time.Second)
		got <- err
	}()
	sub, cancel, err := b.Subscribe("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	<-sub // the request is out, so its sender is waiting on the inbox
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("request in flight when the bus closed = %v", err)
	}
	if _, err := r.Request(Message{Topic: "svc", Type: "ping"}, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("request on a closed bus = %v", err)
	}
	if _, err := NewRequester(b, "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("NewRequester on a closed bus = %v", err)
	}
	if _, err := Request(b, Message{Topic: "svc", Type: "ping"}, "svc.reply", time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("Request on a closed bus = %v", err)
	}

	open := NewInProc()
	defer open.Close()
	r2, err := NewRequester(open, "caller")
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
	r2.Close()
	if _, err := r2.Request(Message{Topic: "svc", Type: "ping"}, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("request on a closed requester = %v", err)
	}
}

// TestRequestAgainstServiceIgnoringReplyTo: the one-shot Request still
// works with a subscriber that answers on a fixed topic and never looks
// at ReplyTo — and leaves no subscription behind.
func TestRequestAgainstServiceIgnoringReplyTo(t *testing.T) {
	transports(t, func(t *testing.T, newBus func() Bus) {
		svc := newBus()
		ch, cancel, err := svc.Subscribe("echo")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for req := range ch {
				if reply, err := Reply(req, "echo.reply", "return", struct{}{}); err == nil {
					_ = svc.Publish(reply)
				}
			}
		}()
		defer func() {
			cancel()
			<-done
		}()
		caller := newBus()
		for i := 0; i < 20; i++ {
			reply, err := Request(caller, Message{Topic: "echo", Type: "ping"}, "echo.reply", 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != "return" || reply.Topic != "echo.reply" {
				t.Fatalf("reply = %+v", reply)
			}
		}
		if b, ok := caller.(*InProc); ok {
			b.mu.Lock()
			left := len(b.subs["echo.reply"])
			b.mu.Unlock()
			if left != 0 {
				t.Errorf("%d subscriptions left on the reply topic", left)
			}
		}
	})
}

func TestRequesterInboxesAreDistinct(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		r, err := NewRequester(b, "caller")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if seen[r.inbox] || !strings.HasPrefix(r.inbox, "caller.inbox.") {
			t.Fatalf("inbox %q repeats or is misnamed", r.inbox)
		}
		seen[r.inbox] = true
	}
}
