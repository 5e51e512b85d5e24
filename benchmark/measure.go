package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// system is one constructed system under test, driven by a single
// closed-loop client: the next op starts when the previous one returned.
type system interface {
	// op runs one operation and checks its output; any error counts the
	// op as failed.
	op() error
	// digest folds the outputs the ops produced so far into the value
	// expected.json pins for the default seed. It may run further ops to
	// reach the pinned length.
	digest() (string, error)
	// layers adds this workload's per-layer metrics, derived from the
	// spans of the traced window and from replays of the op's inputs
	// against the lower layers' exported functions, each replay running
	// for at least probe.
	layers(tr *tracer, probe time.Duration, m map[string]float64) error
	// setTracer switches span recording inside op on (non-nil) or off.
	setTracer(tr *tracer)
	// close tears the system down and waits for its goroutines.
	close()
}

// traced holds the tracer a system's op records its spans on.
type traced struct{ tr *tracer }

func (t *traced) setTracer(tr *tracer) { t.tr = tr }

// window is what one timed window measured.
type window struct {
	ops      int
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64    // MemStats.TotalAlloc delta
	gcCycles uint32    // MemStats.NumGC delta
	gcPause  uint64    // MemStats.PauseTotalNs delta
	lat      []float64 // per-op wall latency in ns, sorted
	// latDropped counts ops whose latency did not fit the preallocated
	// buffer; they still count in ops.
	latDropped int
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.wall.Seconds() }

// counts tracks every op a run issued, inside and outside timed windows.
type counts struct {
	attempted, failed int
	firstErr          error
}

func (c *counts) run(sys system) {
	c.attempted++
	if err := sys.op(); err != nil {
		c.fail(err)
	}
}

func (c *counts) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// warmUp runs ops untimed for at least d and at least 3 ops, so pools and
// arenas reach their steady size, and returns the op rate it saw — the
// estimate the latency buffer is sized from.
func warmUp(sys system, c *counts, d time.Duration) float64 {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < d {
		c.run(sys)
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedWindow runs ops back to back for d (the op in flight at the
// deadline finishes and counts). Latency samples go into a buffer sized
// before the clock starts, so the driver itself allocates nothing inside
// the window. When tr is non-nil every op is wrapped in a "driver.op"
// root span.
func timedWindow(sys system, c *counts, d time.Duration, rate float64, tr *tracer) *window {
	w := &window{lat: make([]float64, 0, int(rate*d.Seconds()*3)+1024)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for t0 := start; t0.Before(deadline); {
		root := tr.beginOp()
		c.run(sys)
		tr.end(root)
		t1 := time.Now()
		w.ops++
		if len(w.lat) < cap(w.lat) {
			w.lat = append(w.lat, float64(t1.Sub(t0)))
		} else {
			w.latDropped++
		}
		t0 = t1
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	w.alloc = after.TotalAlloc - before.TotalAlloc
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPause = after.PauseTotalNs - before.PauseTotalNs
	sort.Float64s(w.lat)
	return w
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// median sorts a copy of v and returns its middle value (mean of the two
// middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method) — the
// spread the acceptance check of this benchmark is stated in.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(median(s))
}

// span is one timed call the driver made into a layer.
type span struct {
	start, end int64  // ns since the tracer was made
	parent     int32  // index of the enclosing span, -1 for a root
	op         int32  // number of the op it belongs to, -1 outside ops
	name       uint16 // index into tracer.names: no pointer, so the GC skips the buffer
}

// tracer keeps the spans of a traced run in memory. Spans nest by call
// order on the driver's single load-generating goroutine, so a stack
// gives each span its parent. Every method is a no-op on a nil tracer:
// the untraced run executes the same op code with tracing off.
type tracer struct {
	t0      time.Time
	spans   []span
	names   []string
	nameID  map[string]uint16
	stack   []int32
	op      int32
	inOp    bool
	dropped int
}

// maxSpans bounds the trace buffer; spans beyond it are counted, not kept.
const maxSpans = 1 << 19

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), nameID: map[string]uint16{},
		stack: make([]int32, 0, 8), op: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent, op := int32(-1), int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if t.inOp {
		op = t.op
	}
	nid, ok := t.nameID[name]
	if !ok {
		nid = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = nid
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: nid, parent: parent, op: op})
	t.stack = append(t.stack, id)
	t.spans[id].start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	if t.spans[id].parent < 0 {
		t.inOp = false
	}
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() int32 {
	if t == nil {
		return -1
	}
	t.op++
	t.inOp = true
	return t.begin("driver.op")
}

// durations returns the durations (ns) of every finished span with the
// given name, sorted.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	nid, ok := t.nameID[name]
	if !ok {
		return nil
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.name == nid && s.end > 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	sort.Float64s(out)
	return out
}

// write renders the spans as one JSON document.
func (t *tracer) write(w io.Writer, workload string, seed int64) error {
	if _, err := fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped_spans\":%d,\"spans\":[", workload, seed, t.dropped); err != nil {
		return err
	}
	for i, s := range t.spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}",
			sep, i, t.names[s.name], s.start, s.end, s.parent, s.op); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// timeP50 calls fn repeatedly for at least d and at least minReps times
// and returns the median duration of a call in ns, or fn's first error. It
// is the stopwatch of the replay probes, which run outside the window.
func timeP50(d time.Duration, minReps int, fn func() error) (float64, error) {
	var reps []float64
	for start := time.Now(); len(reps) < minReps || time.Since(start) < d; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		reps = append(reps, float64(time.Since(t0)))
	}
	return median(reps), nil
}
