package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"sage/internal/guard"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's origin; parent is the index of the span that caused it, or
// -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps every span of a traced run in memory; write dumps them when
// the run ends. Safe for concurrent use: the offline collector and the
// serving engine call wrapped interfaces from several goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	aggs   []*spanAgg
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a span whose end is set by close; it returns the span's id
// so children can name it as their parent.
func (t *tracer) open(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent})
	t.mu.Unlock()
}

// spanAgg summarizes the calls of one hot boundary on one connection (the
// congestion-control hooks run once per ACK, millions of times a round):
// the calls per name, their summed duration, and the first start and last
// end. One connection's hooks run on one goroutine, so the counters need
// no lock; they are read after the run that drove them has returned.
type spanAgg struct {
	parent      int32
	first, last int64
	count, ns   [len(ccSpanNames)]int64
}

// aggregate registers a summary for one connection's hook calls.
func (t *tracer) aggregate(parent int32) *spanAgg {
	a := &spanAgg{parent: parent, first: -1}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
	return a
}

// note adds one call of hook k, from start to end, to the summary.
func (a *spanAgg) note(k int, start, end int64) {
	if a.first < 0 {
		a.first = start
	}
	a.last = end
	a.count[k]++
	a.ns[k] += end - start
}

// stat is the total duration and count of the spans with one name.
type stat struct {
	ns    int64
	count int64
	durs  []float64 // each single span's duration in ns
}

func (s stat) seconds() float64 { return float64(s.ns) / 1e9 }

func (s stat) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.count) / 1e3
}

func (t *tracer) stats() map[string]stat { return t.statsIn(math.MinInt64, math.MaxInt64) }

// statsIn aggregates the spans that start within [lo, hi].
func (t *tracer) statsIn(lo, hi int64) map[string]stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]stat{}
	for _, s := range t.spans {
		if s.start < lo || s.start > hi {
			continue
		}
		st := out[s.name]
		d := s.end - s.start
		st.ns += d
		st.count++
		st.durs = append(st.durs, float64(d))
		out[s.name] = st
	}
	for _, a := range t.aggs {
		if a.first < lo || a.first > hi {
			continue
		}
		for k, name := range ccSpanNames {
			st := out[name]
			st.ns += a.ns[k]
			st.count += a.count[k]
			out[name] = st
		}
	}
	return out
}

// selfSeconds sums, over the spans named root, each span's duration minus
// the part of its interval its children cover. Children that overlap (from
// parallel workers) are counted once. Summarized hook calls carry no
// individual intervals; their busy time is taken as disjoint from the
// other children (hooks run from the simulator's event loop, never inside
// a control or flush call), which overstates coverage only where hooks on
// parallel workers overlap each other.
func (t *tracer) selfSeconds(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ lo, hi int64 }
	kids := map[int32][]iv{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	busy := map[int32]int64{}
	for _, a := range t.aggs {
		for _, ns := range a.ns {
			busy[a.parent] += ns
		}
	}
	var self int64
	for id, s := range t.spans {
		if s.name != root {
			continue
		}
		ivs := kids[int32(id)]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			lo, hi := max(v.lo, reach), min(v.hi, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		covered = min(covered+busy[int32(id)], s.end-s.start)
		self += s.end - s.start - covered
	}
	return float64(self) / 1e9
}

// rootSeconds is the summed duration of every root span.
func (t *tracer) rootSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.parent < 0 {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// write dumps every span as CSV: id,parent,name,start_ns,end_ns,count,
// busy_ns. A single span has count 1; a summary row (one per connection
// and hook) spans its first call to its last.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,count,busy_ns")
	t.mu.Lock()
	for id, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,1,%d\n", id, s.parent, s.name, s.start, s.end, s.end-s.start)
	}
	id := len(t.spans)
	for _, a := range t.aggs {
		for k, name := range ccSpanNames {
			if a.count[k] > 0 {
				fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", id, a.parent, name, a.first, a.last, a.count[k], a.ns[k])
				id++
			}
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connSet remembers every connection a traced congestion controller was
// handed, so the tcp.* counters can be read after the run.
type connSet struct {
	mu    sync.Mutex
	seen  map[*tcp.Conn]bool
	conns []*tcp.Conn
}

func (s *connSet) add(c *tcp.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = map[*tcp.Conn]bool{}
	}
	if !s.seen[c] {
		s.seen[c] = true
		s.conns = append(s.conns, c)
	}
}

// tcpTotals sums the sender counters over every connection in the set.
type tcpTotals struct {
	sent, lost, delivered, rtos, spurious int64
}

func (s *connSet) totals() tcpTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t tcpTotals
	for _, c := range s.conns {
		t.sent += c.SentPkts()
		t.lost += c.LostPkts()
		t.delivered += c.DeliveredPkts()
		t.rtos += c.RTOCount()
		t.spurious += c.SpuriousRetrans()
	}
	return t
}

// tracedCC wraps a congestion controller: its OnAck/OnLoss/OnRTO calls are
// summarized as cc.* spans under the parent the summary was registered
// with, and Init records the connection.
type tracedCC struct {
	inner tcp.CongestionControl
	tr    *tracer
	agg   *spanAgg
	conns *connSet
}

func newTracedCC(inner tcp.CongestionControl, tr *tracer, parent int32, conns *connSet) *tracedCC {
	return &tracedCC{inner: inner, tr: tr, agg: tr.aggregate(parent), conns: conns}
}

func (c *tracedCC) Name() string { return c.inner.Name() }

func (c *tracedCC) Init(conn *tcp.Conn) {
	c.conns.add(conn)
	c.inner.Init(conn)
}

func (c *tracedCC) OnAck(conn *tcp.Conn, e tcp.AckEvent) {
	s := c.tr.now()
	c.inner.OnAck(conn, e)
	c.agg.note(0, s, c.tr.now())
}

func (c *tracedCC) OnLoss(conn *tcp.Conn, lost int, now sim.Time) {
	s := c.tr.now()
	c.inner.OnLoss(conn, lost, now)
	c.agg.note(1, s, c.tr.now())
}

func (c *tracedCC) OnRTO(conn *tcp.Conn, now sim.Time) {
	s := c.tr.now()
	c.inner.OnRTO(conn, now)
	c.agg.note(2, s, c.tr.now())
}

// ccSpanNames are the hooks tracedCC summarizes, indexed as in
// spanAgg; cc.calls and cc.s sum them.
var ccSpanNames = [...]string{"cc.on_ack", "cc.on_loss", "cc.on_rto"}

// batchRows counts the rows the traced fleet controllers enqueue between
// flushes, shared by every flow of one fleet run (the sim loop is single
// threaded, so no locking).
type batchRows struct {
	pending, rows, flushes int64
}

// tracedFlow wraps one guarded fleet flow. Control is a guard.control span
// (the guardian plus the enqueue into the engine); FlushBatch is a
// serve.flush span (the batched forward pass, the cwnd apply and the
// kick). It keeps implementing rollout.BatchFlusher, so rollout still skips
// its inline kick.
type tracedFlow struct {
	inner *guard.BatchGuarded
	tr    *tracer
	root  int32
	rows  *batchRows
}

func (f *tracedFlow) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	// A guard that is not tripped before the call hands the state to the
	// engine (fleet flows see finite states and no swap or brownout).
	enq := !f.inner.Tripped()
	s := f.tr.now()
	f.inner.Control(now, conn, state)
	f.tr.add("guard.control", f.root, s, f.tr.now())
	if enq {
		f.rows.pending++
	}
}

func (f *tracedFlow) FlushBatch(now sim.Time) {
	s := f.tr.now()
	f.inner.FlushBatch(now)
	f.tr.add("serve.flush", f.root, s, f.tr.now())
	if f.rows.pending > 0 {
		f.rows.rows += f.rows.pending
		f.rows.flushes++
		f.rows.pending = 0
	}
}

// tracedShadow wraps the shadow evaluator: each Observe is a
// promote.shadow span.
type tracedShadow struct {
	inner serve.ShadowObserver
	tr    *tracer
	root  int32
}

func (s *tracedShadow) Observe(sid uint64, state []float64, ratio float64, fallback bool) {
	st := s.tr.now()
	s.inner.Observe(sid, state, ratio, fallback)
	s.tr.add("promote.shadow", s.root, st, s.tr.now())
}

// tracedSink wraps the trace spool: each ExportWindow is a feedback.export
// span.
type tracedSink struct {
	inner serve.TraceSink
	tr    *tracer
	root  int32
}

func (s *tracedSink) ExportWindow(w serve.TraceWindow) {
	st := s.tr.now()
	s.inner.ExportWindow(w)
	s.tr.add("feedback.export", s.root, st, s.tr.now())
}
