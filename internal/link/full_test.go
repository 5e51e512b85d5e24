package link

import (
	"reflect"
	"testing"
)

// drain pops every frame arrived by now.
func drain(t *testing.T, f Forwarder, now Time) []Frame {
	t.Helper()
	return f.Recv(now, nil)
}

func TestFastPathImmediateInOrder(t *testing.T) {
	p := NewFastPath()
	for i := 0; i < 5; i++ {
		if v := p.Send(Ms(1), Frame{Seq: uint64(i), Size: 100}); v != Accepted {
			t.Fatalf("send %d: verdict %v", i, v)
		}
	}
	if got := p.Pending(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	out := drain(t, p, Ms(1))
	if len(out) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(out))
	}
	for i, f := range out {
		if f.Seq != uint64(i) || f.Arrival != Ms(1) {
			t.Fatalf("frame %d = %+v, want seq %d arrival %v", i, f, i, Ms(1))
		}
	}
}

func TestFullPathZeroConfigBehavesLikeFast(t *testing.T) {
	p := NewFullPath(FullConfig{}) // no rate, no delay, unbounded, lossless
	for i := 0; i < 8; i++ {
		if v := p.Send(Ms(2), Frame{Seq: uint64(i), Size: 1500}); v != Accepted {
			t.Fatalf("send %d: verdict %v", i, v)
		}
	}
	out := drain(t, p, Ms(2))
	if len(out) != 8 {
		t.Fatalf("delivered %d, want 8", len(out))
	}
	for i, f := range out {
		if f.Seq != uint64(i) || f.Arrival != Ms(2) {
			t.Fatalf("frame %d out of order or delayed: %+v", i, f)
		}
	}
}

func TestFullPathTransmissionAndPropagation(t *testing.T) {
	// 1000-byte frame at 8 Mbps serializes in exactly 1 ms; propagation
	// adds 5 ms.
	p := NewFullPath(FullConfig{RateMbps: 8, DelayMs: 5})
	p.Send(0, Frame{Seq: 1, Size: 1000})
	p.Send(0, Frame{Seq: 2, Size: 1000})
	at, ok := p.Next()
	if !ok || at != Ms(6) {
		t.Fatalf("first arrival = %v (%v), want 6ms", at, ok)
	}
	if out := drain(t, p, Ms(6)); len(out) != 1 || out[0].Seq != 1 {
		t.Fatalf("at 6ms delivered %v, want frame 1 only", out)
	}
	// The second frame queued behind the first: serialization 1..2 ms,
	// arrival 7 ms, and its queueing delay sample is 1 ms.
	if out := drain(t, p, Ms(7)); len(out) != 1 || out[0].Seq != 2 {
		t.Fatalf("at 7ms delivered %v, want frame 2", out)
	}
	st := p.Stats()
	if got := st.QueueDelayMaxMs(); got < 0.99 || got > 1.01 {
		t.Fatalf("max queue delay = %v ms, want ~1", got)
	}
}

func TestFullPathTailDrop(t *testing.T) {
	p := NewFullPath(FullConfig{RateMbps: 8, QueuePkts: 3})
	var accepted, dropped int
	for i := 0; i < 10; i++ {
		switch p.Send(0, Frame{Seq: uint64(i), Size: 1000}) {
		case Accepted:
			accepted++
		case DropQueue:
			dropped++
		default:
			t.Fatalf("unexpected verdict")
		}
	}
	if accepted != 3 || dropped != 7 {
		t.Fatalf("accepted %d dropped %d, want 3/7", accepted, dropped)
	}
	st := p.Stats()
	if st.QueueDrops != 7 || st.MaxQueueDepth != 3 {
		t.Fatalf("stats = %+v, want 7 queue drops, depth 3", st)
	}
	// Once the queue serializes out, new frames are accepted again.
	if v := p.Send(Ms(10), Frame{Seq: 99, Size: 1000}); v != Accepted {
		t.Fatalf("post-drain send: verdict %v", v)
	}
}

func TestFullPathBernoulliLossDeterministicRate(t *testing.T) {
	const n = 20000
	run := func(seed int64) (drops uint64) {
		p := NewFullPath(FullConfig{Loss: Bernoulli(0.1), Seed: seed})
		for i := 0; i < n; i++ {
			p.Send(0, Frame{Size: 100})
		}
		return p.Stats().LossDrops
	}
	d1, d2 := run(7), run(7)
	if d1 != d2 {
		t.Fatalf("same seed, different drops: %d vs %d", d1, d2)
	}
	rate := float64(d1) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("drop rate %.3f far from 0.1", rate)
	}
	if d3 := run(8); d3 == d1 {
		t.Fatalf("different seeds produced identical drop counts %d (suspicious)", d1)
	}
}

// TestFullPathLossCoupling is the common-random-number property the
// throttlesweep monotonicity rides on: with one seed, the transmissions
// dropped at loss rate p are a subset of those dropped at any p' > p.
func TestFullPathLossCoupling(t *testing.T) {
	const n = 5000
	droppedAt := func(p float64) map[int]bool {
		fp := NewFullPath(FullConfig{Loss: Bernoulli(p), Seed: 42})
		out := make(map[int]bool)
		for i := 0; i < n; i++ {
			if fp.Send(0, Frame{Size: 100}) == DropLoss {
				out[i] = true
			}
		}
		return out
	}
	low, high := droppedAt(0.02), droppedAt(0.2)
	for i := range low {
		if !high[i] {
			t.Fatalf("transmission %d dropped at p=0.02 but not at p=0.2: coupling broken", i)
		}
	}
	if len(high) <= len(low) {
		t.Fatalf("drop sets not growing: %d at 0.02 vs %d at 0.2", len(low), len(high))
	}
}

func TestFullPathGilbertElliottBursts(t *testing.T) {
	// A sticky bad state with certain loss produces runs of consecutive
	// drops — the burst signature Bernoulli cannot produce at the same
	// average rate.
	p := NewFullPath(FullConfig{Loss: GilbertElliott(0.02, 0.2, 0, 1), Seed: 3})
	const n = 20000
	var drops, maxRun, run int
	for i := 0; i < n; i++ {
		if p.Send(0, Frame{Size: 100}) == DropLoss {
			drops++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if drops == 0 {
		t.Fatal("GE model never dropped")
	}
	if maxRun < 5 {
		t.Fatalf("longest loss burst %d, want ≥ 5 (bursty model)", maxRun)
	}
}

func TestFullPathReorderBounded(t *testing.T) {
	p := NewFullPath(FullConfig{DelayMs: 1, ReorderProb: 0.3, ReorderWindowMs: 5, Seed: 9})
	const n = 1000
	for i := 0; i < n; i++ {
		p.Send(0, Frame{Seq: uint64(i), Size: 100})
	}
	out := drain(t, p, Ms(100))
	if len(out) != n {
		t.Fatalf("delivered %d, want %d", len(out), n)
	}
	inversions := 0
	var maxSkew Time
	for i := 1; i < len(out); i++ {
		if out[i].Seq < out[i-1].Seq {
			inversions++
		}
		if skew := out[i].Arrival - out[i-1].Arrival; skew > maxSkew {
			maxSkew = skew
		}
	}
	if inversions == 0 {
		t.Fatal("no out-of-order deliveries despite ReorderProb")
	}
	if got := p.Stats().Reordered; got == 0 {
		t.Fatal("Reordered counter stayed zero")
	}
	// Jitter is bounded: no frame arrives later than delay + window.
	for _, f := range out {
		if f.Arrival > Ms(1+5) {
			t.Fatalf("frame %d arrived at %v, beyond the 6ms reorder bound", f.Seq, f.Arrival)
		}
	}
}

func TestFullPathDeterministicSchedule(t *testing.T) {
	build := func() *FullPath {
		return NewFullPath(FullConfig{
			RateMbps: 10, DelayMs: 3, QueuePkts: 16,
			Loss: Bernoulli(0.05), ReorderProb: 0.1, ReorderWindowMs: 2, Seed: 77,
		})
	}
	a, b := build(), build()
	var outA, outB []Frame
	for i := 0; i < 2000; i++ {
		now := Time(i) * Ms(0.1)
		fa := a.Send(now, Frame{Seq: uint64(i), Size: 500})
		fb := b.Send(now, Frame{Seq: uint64(i), Size: 500})
		if fa != fb {
			t.Fatalf("send %d: verdicts diverge (%v vs %v)", i, fa, fb)
		}
		outA = a.Recv(now, outA)
		outB = b.Recv(now, outB)
	}
	outA = a.Recv(Ms(1e6), outA)
	outB = b.Recv(Ms(1e6), outB)
	if len(outA) != len(outB) {
		t.Fatalf("delivery counts diverge: %d vs %d", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("frame %d diverges: %+v vs %+v", i, outA[i], outB[i])
		}
	}
}

func TestSplitSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for salt := uint64(0); salt < 1000; salt++ {
		seen[SplitSeed(1, salt)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("SplitSeed collided: %d distinct of 1000", len(seen))
	}
	if SplitSeed(1, 5) == SplitSeed(2, 5) {
		t.Fatal("SplitSeed ignores the seed")
	}
}

// resetConfigs are the link models FullPath.Reset is checked on: one that
// never draws, and one for each consumer of the random stream.
var resetConfigs = []struct {
	name string
	cfg  FullConfig
}{
	{"lossless", FullConfig{RateMbps: 8, DelayMs: 2, QueuePkts: 4}},
	{"bernoulli", FullConfig{RateMbps: 8, DelayMs: 2, QueuePkts: 4, Loss: Bernoulli(0.2), Seed: 5}},
	{"gilbert-elliott", FullConfig{RateMbps: 8, Loss: GilbertElliott(0.3, 0.1, 0, 0.9), Seed: 6}},
	{"reorder", FullConfig{DelayMs: 1, ReorderProb: 0.3, ReorderWindowMs: 4, Seed: 7}},
}

// schedule is everything a link shows while it is driven: the verdict of
// each Send, the frames received after each, and the final drain.
type schedule struct {
	verdicts []Verdict
	frames   []Frame
	next     []Time
	stats    Stats
}

// drive offers n frames, one every gap, receiving as it goes, then drains.
func drive(p *FullPath, n int, gap Time, size int) schedule {
	var s schedule
	for i := 0; i < n; i++ {
		now := Time(i) * gap
		s.verdicts = append(s.verdicts, p.Send(now, Frame{Seq: uint64(i), Size: size}))
		at, _ := p.Next()
		s.next = append(s.next, at)
		s.frames = p.Recv(now, s.frames)
	}
	s.frames = p.Recv(Ms(1e6), s.frames)
	s.stats = p.Stats()
	return s
}

// TestFullPathResetEqualsNew pins FullPath.Reset ≡ NewFullPath: a link
// that was used — and left mid-flight, its queue full, its loss model in
// the bad state — then Reset, shows the same schedule as a fresh one.
func TestFullPathResetEqualsNew(t *testing.T) {
	for _, c := range resetConfigs {
		t.Run(c.name, func(t *testing.T) {
			used := NewFullPath(c.cfg)
			// Dirty it with another schedule, stopping with frames still on
			// the wire and, for Gilbert-Elliott, in the bad state.
			for i := 0; i < 500 || (c.cfg.Loss.Kind == LossGilbertElliott && !used.loss.bad); i++ {
				used.Send(Time(i)*Ms(0.3), Frame{Seq: uint64(i), Size: 700})
			}
			if used.Pending() == 0 {
				t.Fatal("the used link holds no frame; Reset has nothing to discard")
			}
			used.Reset()
			if _, ok := used.Next(); ok || used.Pending() != 0 {
				t.Fatal("Reset left frames on the wire")
			}
			got, want := drive(used, 400, Ms(0.4), 1000), drive(NewFullPath(c.cfg), 400, Ms(0.4), 1000)
			if !reflect.DeepEqual(got, want) {
				got.stats.queueDelaysMs, want.stats.queueDelaysMs = nil, nil // keep the message short
				t.Fatalf("reset link diverges from a fresh one:\nreset %+v\nfresh %+v", got.stats, want.stats)
			}
			if c.cfg.Loss.Kind != LossNone && want.stats.LossDrops == 0 {
				t.Fatal("the schedule never lost a frame; the loss stream went unchecked")
			}
			if c.cfg.ReorderProb > 0 && want.stats.Reordered == 0 {
				t.Fatal("the schedule never reordered; the jitter stream went unchecked")
			}
		})
	}
}

// TestFullPathSteadyStateAllocatesNothing pins the allocation contract the
// engine's full tier rides on: a warm link sends, receives and resets
// without allocating, and a link that never draws builds no rand.Rand
// (4.9 KB each — most of a k=16 fat-tree engine before this was pinned).
func TestFullPathSteadyStateAllocatesNothing(t *testing.T) {
	for _, c := range resetConfigs {
		p := NewFullPath(c.cfg)
		if draws := c.cfg.Loss.Kind != LossNone || c.cfg.ReorderProb > 0; (p.rng != nil) != draws {
			t.Fatalf("%s: rng built = %v, link draws = %v", c.name, p.rng != nil, draws)
		}
		var buf []Frame
		op := func() {
			for i := 0; i < 64; i++ {
				now := Time(i) * Ms(0.5)
				p.Send(now, Frame{Seq: uint64(i), Size: 1000})
				buf = p.Recv(now, buf[:0])
			}
			p.Reset()
		}
		op() // grow the buffers once
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Fatalf("%s: warm Send+Recv+Reset allocates %v times per run", c.name, n)
		}
		if n := testing.AllocsPerRun(20, p.Reset); n != 0 {
			t.Fatalf("%s: Reset allocates %v times", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() { NewFullPath(resetConfigs[0].cfg) }); n > 1 {
		t.Fatalf("a lossless NewFullPath allocates %v times, want the link alone", n)
	}
}

// TestFullPathStatsSnapshotSurvivesReset pins that Stats hands out its own
// copy of the sojourn samples: Reset truncates and the next run overwrites
// the link's array, and a snapshot taken before must not change under it.
func TestFullPathStatsSnapshotSurvivesReset(t *testing.T) {
	p := NewFullPath(FullConfig{RateMbps: 8})
	for i := 0; i < 100; i++ {
		p.Send(0, Frame{Size: 1000}) // 1 ms each: sojourns 0..99 ms
	}
	snap := p.Stats()
	p99, max := snap.QueueDelayP99Ms(), snap.QueueDelayMaxMs()
	if p99 < 97 || max < 98.9 {
		t.Fatalf("snapshot p99 %v max %v, want ~98 and ~99", p99, max)
	}
	p.Reset()
	for i := 0; i < 100; i++ {
		p.Send(Time(i)*Ms(5), Frame{Size: 1000}) // paced: no sojourn at all
	}
	if got := p.Stats().QueueDelayMaxMs(); got != 0 {
		t.Fatalf("paced run queued for %v ms", got)
	}
	if snap.QueueDelayP99Ms() != p99 || snap.QueueDelayMaxMs() != max {
		t.Fatalf("snapshot changed under Reset and re-run: p99 %v → %v, max %v → %v",
			p99, snap.QueueDelayP99Ms(), max, snap.QueueDelayMaxMs())
	}
}
