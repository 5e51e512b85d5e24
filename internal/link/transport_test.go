package link

import (
	"context"
	"reflect"
	"testing"
)

// pair builds a symmetric full-path connection: data and ack directions
// with the same rate and one-way delay (RTT = 2×delay).
func pair(rateMbps, delayMs float64, queue int, loss LossConfig, seed int64) (data, ack Forwarder) {
	data = NewFullPath(FullConfig{RateMbps: rateMbps, DelayMs: delayMs, QueuePkts: queue, Loss: loss, Seed: seed})
	ack = NewFullPath(FullConfig{RateMbps: rateMbps, DelayMs: delayMs, Seed: SplitSeed(seed, 1)})
	return data, ack
}

func TestTransferLosslessCompletes(t *testing.T) {
	data, ack := pair(16, 10, 64, LossConfig{}, 1)
	res, err := RunTransfer(context.Background(), data, ack, TransferConfig{Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if res.BytesAcked != 1<<20 {
		t.Fatalf("acked %d bytes, want %d", res.BytesAcked, 1<<20)
	}
	if res.Retransmits != 0 && res.FwdStats.QueueDrops == 0 {
		t.Fatalf("lossless uncongested run retransmitted %d segments", res.Retransmits)
	}
	// Goodput must approach (but never exceed) the wire rate.
	if res.GoodputMbps <= 8 || res.GoodputMbps > 16 {
		t.Fatalf("goodput %.2f Mbps, want in (8, 16]", res.GoodputMbps)
	}
}

func TestTransferFastPathCompletesInstantly(t *testing.T) {
	res, err := RunTransfer(context.Background(), NewFastPath(), NewFastPath(),
		TransferConfig{Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.BytesAcked != 1<<20 {
		t.Fatalf("fast-path transfer: %+v", res)
	}
	if res.DurationMs != 0 {
		t.Fatalf("fast path took %v virtual ms, want 0", res.DurationMs)
	}
}

func TestTransferLossDegradesGoodput(t *testing.T) {
	run := func(lossPct float64) float64 {
		data, ack := pair(16, 10, 64, Bernoulli(lossPct/100), 5)
		res, err := RunTransfer(context.Background(), data, ack, TransferConfig{Bytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatalf("loss %.1f%%: aborted (%s)", lossPct, res.AbortReason)
		}
		return res.GoodputMbps
	}
	clean, light, lossy, heavy := run(0), run(1), run(2), run(10)
	if !(clean > light && light > lossy && lossy > heavy) {
		t.Fatalf("goodput not degrading: clean %.2f, 1%% %.2f, 2%% %.2f, 10%% %.2f", clean, light, lossy, heavy)
	}
	// Graceful, not catastrophic: even 10% loss keeps the pipe moving.
	if heavy <= 0.1 {
		t.Fatalf("10%% loss collapsed goodput to %.3f Mbps", heavy)
	}
}

func TestTransferRTTDegradesGoodput(t *testing.T) {
	run := func(delayMs float64) float64 {
		data, ack := pair(16, delayMs, 64, LossConfig{}, 5)
		res, err := RunTransfer(context.Background(), data, ack, TransferConfig{Bytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.GoodputMbps
	}
	near, far := run(5), run(120)
	if near <= far {
		t.Fatalf("goodput did not degrade with RTT: 10ms→%.2f, 240ms→%.2f", near, far)
	}
}

func TestTransferSurvivesHeavyLossViaRTO(t *testing.T) {
	data, ack := pair(8, 20, 32, Bernoulli(0.3), 2)
	res, err := RunTransfer(context.Background(), data, ack,
		TransferConfig{Bytes: 64 << 10, BudgetMs: 600_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("aborted under heavy loss: %s (acked %d)", res.AbortReason, res.BytesAcked)
	}
	if res.Timeouts == 0 && res.Retransmits == 0 {
		t.Fatal("30% loss produced no recovery activity")
	}
}

func TestTransferDeterministic(t *testing.T) {
	run := func() TransferResult {
		data, ack := pair(12, 15, 48, Bernoulli(0.03), 11)
		res, err := RunTransfer(context.Background(), data, ack, TransferConfig{Bytes: 512 << 10})
		if err != nil {
			t.Fatal(err)
		}
		r := *res
		r.FwdStats.queueDelaysMs = nil
		r.RevStats.queueDelaysMs = nil
		return r
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seeds, different results:\n%+v\n%+v", a, b)
	}
}

func TestTransferCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data, ack := pair(16, 10, 64, LossConfig{}, 1)
	if _, err := RunTransfer(ctx, data, ack, TransferConfig{Bytes: 1 << 20}); err == nil {
		t.Fatal("canceled context did not abort the transfer")
	}
}

func TestRSTInjectorKillsConnection(t *testing.T) {
	data, ack := pair(16, 15, 64, LossConfig{}, 4)
	inj := NewRSTInjector(data, ack, Ms(300))
	res, err := RunTransfer(context.Background(), inj, ack, TransferConfig{Bytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != "rst" {
		t.Fatalf("transfer not RST-killed: %+v", res)
	}
	at, ok := inj.InjectedAt()
	if !ok {
		t.Fatal("injector never fired")
	}
	if at < Ms(300) {
		t.Fatalf("injected at %v, before the armed time", at)
	}
	detect := res.AbortAt - at
	if detect <= 0 {
		t.Fatalf("detection %v not positive", detect)
	}
	// The RST needs one reverse propagation (15 ms) to reach the sender;
	// detection should be that order of magnitude, not an RTO-scale stall.
	if detect > Ms(200) {
		t.Fatalf("detection took %v, want well under the 200ms RTO floor", detect)
	}
	if res.BytesAcked == 0 {
		t.Fatal("no residual goodput before the kill")
	}
}

func TestTransferBudgetAborts(t *testing.T) {
	// A wire that loses everything: the sender can never finish and must
	// give up at the virtual-time budget.
	data := NewFullPath(FullConfig{Loss: Bernoulli(1), Seed: 1})
	ack := NewFullPath(FullConfig{})
	res, err := RunTransfer(context.Background(), data, ack,
		TransferConfig{Bytes: 1 << 20, BudgetMs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != "budget" {
		t.Fatalf("expected budget abort, got %+v", res)
	}
	if res.BytesAcked != 0 {
		t.Fatalf("acked %d bytes over a fully lossy wire", res.BytesAcked)
	}
}
