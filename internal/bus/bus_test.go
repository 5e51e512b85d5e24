package bus

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInProcPubSub(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	ch, cancel, err := b.Subscribe("topic")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	want := Message{Topic: "topic", Type: "hello", Payload: json.RawMessage(`{"x":1}`)}
	if err := b.Publish(want); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.Type != "hello" || string(got.Payload) != `{"x":1}` {
		t.Errorf("got %+v", got)
	}
}

func TestInProcFanOut(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	var chans []<-chan Message
	for i := 0; i < 3; i++ {
		ch, cancel, err := b.Subscribe("t")
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		chans = append(chans, ch)
	}
	if err := b.Publish(Message{Topic: "t", Type: "m"}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case m := <-ch:
			if m.Type != "m" {
				t.Errorf("subscriber %d got %+v", i, m)
			}
		case <-time.After(time.Second):
			t.Fatalf("subscriber %d starved", i)
		}
	}
}

func TestInProcTopicIsolation(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	chA, cancelA, _ := b.Subscribe("a")
	defer cancelA()
	if err := b.Publish(Message{Topic: "b", Type: "m"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-chA:
		t.Errorf("topic a received topic b's message: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestInProcCancelClosesChannel(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	ch, cancel, _ := b.Subscribe("t")
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel should be closed after cancel")
	}
	cancel() // double-cancel is a no-op
	if err := b.Publish(Message{Topic: "t", Type: "m"}); err != nil {
		t.Errorf("publish after unsubscribe should succeed: %v", err)
	}
}

func TestInProcCloseAndErrors(t *testing.T) {
	b := NewInProc()
	ch, _, _ := b.Subscribe("t")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ch; ok {
		t.Error("subscriber channel should close on bus close")
	}
	if err := b.Publish(Message{Topic: "t"}); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v", err)
	}
	if _, _, err := b.Subscribe("t"); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	b2 := NewInProc()
	defer b2.Close()
	if err := b2.Publish(Message{}); err == nil {
		t.Error("empty topic should fail")
	}
	if _, _, err := b2.Subscribe(""); err == nil {
		t.Error("empty topic subscribe should fail")
	}
}

func TestInProcFullSubscriberFailsLoudly(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	_, cancel, _ := b.Subscribe("t")
	defer cancel()
	var err error
	for i := 0; i <= subscriberBuffer; i++ {
		err = b.Publish(Message{Topic: "t", Type: "m"})
		if err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("overflow error = %v", err)
	}
}

func TestPayloadHelpers(t *testing.T) {
	type body struct {
		Name string `json:"name"`
	}
	p, err := EncodePayload(body{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var got body
	if err := DecodePayload(Message{Payload: p}, &got); err != nil || got.Name != "x" {
		t.Errorf("decode = %+v, %v", got, err)
	}
	if err := DecodePayload(Message{Topic: "t", Type: "y", Payload: json.RawMessage("{")}, &got); err == nil {
		t.Error("bad payload should fail")
	}
	if _, err := EncodePayload(func() {}); err == nil {
		t.Error("unencodable payload should fail")
	}
}

func TestRequestReply(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	// Echo responder.
	reqCh, cancel, _ := b.Subscribe("svc")
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := <-reqCh
		reply, err := Reply(req, "svc.reply", "pong", map[string]string{"ok": "yes"})
		if err != nil {
			t.Error(err)
			return
		}
		if err := b.Publish(reply); err != nil {
			t.Error(err)
		}
	}()
	resp, err := Request(b, Message{Topic: "svc", Type: "ping"}, "svc.reply", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != "pong" {
		t.Errorf("reply = %+v", resp)
	}
	wg.Wait()
}

func TestRequestTimeout(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	_, err := Request(b, Message{Topic: "nobody", Type: "ping"}, "nobody.reply", 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v", err)
	}
}

func TestRequestIgnoresForeignCorrelations(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	reqCh, cancel, _ := b.Subscribe("svc")
	defer cancel()
	go func() {
		req := <-reqCh
		// A stray reply with the wrong correlation arrives first.
		_ = b.Publish(Message{Topic: "svc.reply", Type: "stray", CorrelationID: "someone-else"})
		reply, _ := Reply(req, "svc.reply", "pong", nil)
		_ = b.Publish(reply)
	}()
	resp, err := Request(b, Message{Topic: "svc", Type: "ping"}, "svc.reply", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != "pong" {
		t.Errorf("reply = %+v (stray message was not skipped)", resp)
	}
}

func TestNewCorrelationIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewCorrelationID()
		if seen[id] {
			t.Fatalf("duplicate correlation id %q", id)
		}
		seen[id] = true
	}
}

// TestInProcPublishServesTheOthersWhenOneIsFull: a full subscriber costs
// the publisher an error naming it, and costs the other subscribers of
// the topic nothing — whichever position it holds.
func TestInProcPublishServesTheOthersWhenOneIsFull(t *testing.T) {
	b := NewInProc()
	defer b.Close()
	var chans [3]<-chan Message
	for i := range chans {
		ch, cancel, err := b.Subscribe("t")
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		chans[i] = ch
	}
	// Fill all three, then drain the outer two: only the middle is full.
	for i := 0; i < subscriberBuffer; i++ {
		if err := b.Publish(Message{Topic: "t", Type: "fill"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		for n := 0; n < subscriberBuffer; n++ {
			<-chans[i]
		}
	}
	for round := 0; round < 20; round++ {
		err := b.Publish(Message{Topic: "t", Type: "m"})
		if err == nil || !strings.Contains(err.Error(), "subscriber 2 on") || !strings.Contains(err.Error(), "full") {
			t.Fatalf("publish with the middle subscriber full = %v, want an error naming subscriber 2", err)
		}
		for _, i := range []int{0, 2} {
			select {
			case m := <-chans[i]:
				if m.Type != "m" {
					t.Fatalf("subscriber %d got %+v", i+1, m)
				}
			default:
				t.Fatalf("round %d: subscriber %d was skipped because subscriber 2 is full", round, i+1)
			}
		}
	}
	// Two full ones are both named, in subscription order.
	for i := 0; i < subscriberBuffer; i++ {
		_ = b.Publish(Message{Topic: "t", Type: "fill"})
	}
	for n := 0; n < subscriberBuffer; n++ {
		<-chans[0]
	}
	if err := b.Publish(Message{Topic: "t", Type: "m"}); err == nil || !strings.Contains(err.Error(), "subscriber 2, 3 on") {
		t.Errorf("publish with two full subscribers = %v", err)
	}
}

func TestReplyToOnTheWire(t *testing.T) {
	with, err := json.Marshal(Message{Topic: "t", Type: "m", ReplyTo: "caller.inbox.1"})
	if err != nil || !strings.Contains(string(with), `"reply_to":"caller.inbox.1"`) {
		t.Errorf("request with an inbox marshals to %s, %v", with, err)
	}
	without, err := json.Marshal(Message{Topic: "t", Type: "m"})
	if err != nil || strings.Contains(string(without), "reply_to") {
		t.Errorf("message without an inbox marshals to %s, %v", without, err)
	}
}
