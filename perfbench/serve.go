package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sage/internal/core"
	"sage/internal/feedback"
	"sage/internal/promote"
	"sage/internal/serve"
	"sage/internal/telemetry"
)

// serveSize is the shape of the serve workload.
type serveSize struct {
	sessions    int
	clients     int // closed-loop connections (0 = one per CPU)
	states      int // distinct seeded states per session, cycled
	warmup      time.Duration
	traceWindow int // decisions per exported trace window
	setups      int
}

var (
	serveFull = serveSize{sessions: 1000, states: 8, warmup: time.Second, traceWindow: 8, setups: 21}
	serveTiny = serveSize{sessions: 20, clients: 2, states: 2, warmup: 50 * time.Millisecond, traceWindow: 4, setups: 2}
)

// minCwnd is the engine's default cwnd floor; every served window must be
// at least this.
const minCwnd = 2

// serveInputs are the seeded per-session observations and starting
// windows, plus the model files of the served policy and of the shadow
// candidate.
type serveInputs struct {
	size              serveSize
	clients           int
	states            [][][]float64 // [session][k] raw GR state
	cwnd0             []float64
	policy, candidate string
}

func newServeInputs(seed int64, size serveSize) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := serveInputs{size: size, clients: size.clients}
	if in.clients == 0 {
		in.clients = runtime.NumCPU()
	}
	in.states = make([][][]float64, size.sessions)
	in.cwnd0 = make([]float64, size.sessions)
	for s := range in.states {
		in.states[s] = make([][]float64, size.states)
		for k := range in.states[s] {
			in.states[s][k] = randState(rng)
		}
		in.cwnd0[s] = 10 + 90*rng.Float64()
	}
	return in
}

// serveStack is the sage-serve closed-loop production configuration, in
// process: an engine with the default overload ladder, a trace spool, a
// shadow candidate, and a unix-socket server with one client per load
// connection.
type serveStack struct {
	dir     string
	reg     *telemetry.Registry
	eng     *serve.Engine
	sink    *feedback.SpoolSink
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
}

// newServeStack starts the stack. With tr set the shadow evaluator and the
// trace sink are wrapped and spanned under root.
func newServeStack(o opts, in serveInputs, tr *tracer, root int32) (*serveStack, error) {
	pol, err := loadPolicy(in.policy)
	if err != nil {
		return nil, err
	}
	cand, err := core.LoadModel(in.candidate)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "serve-")
	if err != nil {
		return nil, err
	}
	st := &serveStack{dir: dir, reg: telemetry.NewRegistry(), served: make(chan error, 1)}
	st.sink, err = feedback.NewSpoolSink(feedback.SinkConfig{Dir: filepath.Join(dir, "spool"), Metrics: st.reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var sink serve.TraceSink = st.sink
	var shadow serve.ShadowObserver = promote.NewShadow(cand, promote.ShadowConfig{Metrics: st.reg})
	if tr != nil {
		sink = &tracedSink{inner: sink, tr: tr, root: root}
		shadow = &tracedShadow{inner: shadow, tr: tr, root: root}
	}
	st.eng = serve.NewEngine(serve.Config{
		Policy:           pol,
		Metrics:          st.reg,
		Overload:         &serve.OverloadConfig{},
		Trace:            sink,
		TraceWindowSteps: in.size.traceWindow,
	})
	st.eng.SetShadow(shadow)
	st.srv = serve.NewServer(st.eng)
	st.srv.MaxConns = 1024
	sock := filepath.Join(dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		st.sink.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < in.clients; i++ {
		c, err := serve.DialTimeout(sock, 5*time.Second)
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	if _, err := st.clients[0].Health(); err != nil {
		st.close()
		return nil, fmt.Errorf("serve: health probe: %w", err)
	}
	return st, nil
}

// close drains the server and the spool and removes the scratch directory.
func (st *serveStack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	st.srv.Shutdown()
	err := <-st.served
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	if cerr := st.sink.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// loadResult is one closed-loop window's accounting.
type loadResult struct {
	sent, answered, errs, badCwnd int64
	latUs                         []float64
	wall                          time.Duration
	modeMax                       serve.Mode
}

// drive runs the closed loop for d: each client owns every clients-th
// session, sends one decision at a time and waits for the reply before the
// next, carrying each session's served window into its next request as a
// datapath agent does. cwnds is the per-session window state, kept across
// windows.
func drive(st *serveStack, in serveInputs, cwnds []float64, steps []int, d time.Duration, tr *tracer, root int32) loadResult {
	var res loadResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	modeDone := make(chan serve.Mode)
	go func() {
		// Sample the overload ladder while the load runs.
		max := st.eng.OverloadMode()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				modeDone <- max
				return
			case <-t.C:
				if m := st.eng.OverloadMode(); m > max {
					max = m
				}
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(d)
	for ci, cl := range st.clients {
		wg.Add(1)
		go func(ci int, cl *serve.Client) {
			defer wg.Done()
			var r loadResult
			own := (len(cwnds) - ci + len(st.clients) - 1) / len(st.clients)
			for k := 0; time.Now().Before(deadline); k++ {
				sid := ci + (k%own)*len(st.clients)
				state := in.states[sid][steps[sid]%len(in.states[sid])]
				r.sent++
				t0 := time.Now()
				var s0 int64
				if tr != nil {
					s0 = tr.now()
				}
				cwnd, status, err := cl.Decide(uint64(sid+1), cwnds[sid], state)
				if tr != nil {
					tr.add("serve.decide", root, s0, tr.now())
				}
				lat := float64(time.Since(t0)) / 1e3
				switch {
				case err != nil, status != serve.StatusOK && status != serve.StatusFallback:
					r.errs++
				case math.IsNaN(cwnd) || math.IsInf(cwnd, 0) || cwnd < minCwnd:
					r.answered++
					r.badCwnd++
				default:
					r.answered++
					r.latUs = append(r.latUs, lat)
					cwnds[sid] = cwnd
					steps[sid]++
				}
			}
			mu.Lock()
			res.sent += r.sent
			res.answered += r.answered
			res.errs += r.errs
			res.badCwnd += r.badCwnd
			res.latUs = append(res.latUs, r.latUs...)
			mu.Unlock()
		}(ci, cl)
	}
	wg.Wait()
	res.wall = time.Since(start)
	close(stop)
	res.modeMax = <-modeDone
	return res
}

// regCounts is the engine registry at one instant.
type regCounts struct {
	batches, fallbacks, shed, degraded int64
	waitSum, waitN, sizeSum, sizeN     float64
}

func readReg(r *telemetry.Registry) regCounts {
	w := r.Histogram(serve.MetricBatchWaitUs).Summary()
	s := r.Histogram(serve.MetricBatchSize).Summary()
	return regCounts{
		batches:   r.Counter(serve.MetricBatches).Value(),
		fallbacks: r.Counter(serve.MetricFallbacks).Value(),
		shed:      r.Counter(serve.MetricOverloadShed).Value(),
		degraded:  r.Counter(serve.MetricOverloadDegraded).Value(),
		waitSum:   w.Sum, waitN: float64(w.Count),
		sizeSum: s.Sum, sizeN: float64(s.Count),
	}
}

// account checks one window's books and adds it to the report: every call
// sent is answered or counted as an error, and every answer is a finite
// window at or above the floor.
func account(res loadResult, rep *report) {
	rep.attempted += res.sent
	if res.sent != res.answered+res.errs {
		rep.fail(res.sent-res.answered-res.errs, "serve: %d calls sent, %d answered, %d errors", res.sent, res.answered, res.errs)
	}
	if res.errs > 0 {
		rep.fail(res.errs, "serve: %d calls answered busy, overload or error", res.errs)
	}
	if res.badCwnd > 0 {
		rep.fail(res.badCwnd, "serve: %d answers carried a non-finite or sub-floor cwnd", res.badCwnd)
	}
}

func runServe(o opts) (*report, error) {
	size := serveFull
	if o.tiny {
		size = serveTiny
	}
	rep := newReport()
	in := newServeInputs(o.seed, size)
	// The candidate is the same architecture with other weights, as a
	// freshly published model would be.
	var err error
	if in.policy, err = saveModel(o.dir, 1); err != nil {
		return nil, err
	}
	if in.candidate, err = saveModel(o.dir, 3); err != nil {
		return nil, err
	}
	rep.note("inputs serve sessions=%d clients=%d states/session=%d first_cwnd=%.6f", size.sessions, in.clients, size.states, in.cwnd0[0])
	cwnds := append([]float64(nil), in.cwnd0...)
	steps := make([]int, size.sessions)

	st, setups, err := setupTimes(size.setups,
		func() (*serveStack, error) { return newServeStack(o, in, nil, -1) },
		func(st *serveStack) { st.close() })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{median(setups), "s", len(setups)}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	account(drive(st, in, cwnds, steps, size.warmup, nil, -1), rep)
	res := drive(st, in, cwnds, steps, window, nil, -1)
	if err := st.close(); err != nil {
		return nil, err
	}
	account(res, rep)
	rate := float64(res.answered) / res.wall.Seconds()
	rep.note("decisions_per_s %.6g 1/s n=%d (= work_per_s)", rate, res.answered)
	rep.note("decide_p50_us %.6g us n=%d (= op_p50_us)", quantile(res.latUs, 0.5), len(res.latUs))
	rep.note("decide_p90_us %.6g us n=%d (= op_p90_us)", quantile(res.latUs, 0.9), len(res.latUs))
	rep.note("decide_p99_us %.6g us n=%d (not gated: its run-to-run spread is too wide)", quantile(res.latUs, 0.99), len(res.latUs))
	if !o.trace {
		rep.e2e["work_per_s"] = metric{rate, "1/s", int(res.answered)}
		rep.e2e["op_p50_us"] = metric{quantile(res.latUs, 0.5), "us", len(res.latUs)}
		rep.e2e["op_p90_us"] = metric{quantile(res.latUs, 0.9), "us", len(res.latUs)}
		rep.e2e["max_rss_mb"] = metric{maxRSSMB(), "MB", 1}
		rep.note("failed_share %.6g (%d/%d calls)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
		return rep, nil
	}

	// Traced half: a fresh stack with the shadow and the sink wrapped, and
	// every client call a serve.decide span under one root.
	tr := newTracer()
	root := tr.open("serve.load", -1)
	tst, err := newServeStack(o, in, tr, root)
	if err != nil {
		return nil, err
	}
	account(drive(tst, in, cwnds, steps, size.warmup, nil, -1), rep)
	before := readReg(tst.reg)
	lo := tr.now()
	tres := drive(tst, in, cwnds, steps, window, tr, root)
	hi := tr.now()
	after := readReg(tst.reg)
	waitP99 := tst.reg.Histogram(serve.MetricBatchWaitUs).Summary().P99
	if err := tst.close(); err != nil {
		return nil, err
	}
	tr.close(root)
	account(tres, rep)
	spans := tr.statsIn(lo, hi)
	L := rep.layer
	L["serve.batch_wait_us_mean"] = metric{(after.waitSum - before.waitSum) / math.Max(after.waitN-before.waitN, 1), "us", int(after.waitN - before.waitN)}
	L["serve.batch_wait_us_p99"] = metric{waitP99, "us", int(after.waitN)}
	L["serve.batch_size_mean"] = metric{(after.sizeSum - before.sizeSum) / math.Max(after.sizeN-before.sizeN, 1), "count", int(after.sizeN - before.sizeN)}
	L["serve.batches"] = metric{float64(after.batches - before.batches), "count", 1}
	L["serve.fallbacks"] = metric{float64(after.fallbacks - before.fallbacks), "count", 1}
	L["serve.overload_shed"] = metric{float64(after.shed - before.shed), "count", 1}
	L["serve.overload_degraded"] = metric{float64(after.degraded - before.degraded), "count", 1}
	L["serve.mode_max"] = metric{float64(tres.modeMax), "level", 1}
	sh, ex := spans["promote.shadow"], spans["feedback.export"]
	L["promote.shadow_us_mean"] = metric{sh.meanUs(), "us", int(sh.count)}
	L["promote.shadow_calls"] = metric{float64(sh.count), "count", 1}
	L["feedback.export_us_mean"] = metric{ex.meanUs(), "us", int(ex.count)}
	L["feedback.windows"] = metric{float64(ex.count), "count", 1}
	L["feedback.spool_dropped"] = metric{float64(tst.reg.Counter(feedback.MetricSpoolDropped).Value()), "count", 1}
	L["feedback.spool_bytes"] = metric{float64(tst.reg.Counter(feedback.MetricSpoolBytes).Value()), "B", 1}
	trate := float64(tres.answered) / tres.wall.Seconds()
	L["trace.overhead"] = metric{rate / trate, "ratio", 1}
	// Share of each connection's time spent inside a decision call; the
	// rest is the load generator's own loop.
	L["trace.accounted"] = metric{spans["serve.decide"].seconds() / (float64(len(tst.clients)) * float64(hi-lo) / 1e9), "ratio", 1}
	return rep, tr.write(spanPath(o, "serve", 0))
}
