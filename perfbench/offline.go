package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/exp"
	"sage/internal/netem"
	"sage/internal/rl"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// offlineSize is the shape of one offline round: collect the pool, build
// the dataset, run a fixed number of CRR steps.
type offlineSize struct {
	schemes   []string
	scenarios int // first n Set I scenarios (0 = all)
	duration  sim.Time
	steps     int
	setups    int
}

var (
	offlineFull = offlineSize{schemes: cc.PoolNames(), duration: exp.Quick().SetIDur, steps: 250, setups: 21}
	offlineTiny = offlineSize{schemes: []string{"cubic", "vegas"}, scenarios: 2, duration: sim.Second, steps: 5, setups: 2}
)

// offlineInputs is the scenario grid and the learner configuration of one
// round.
type offlineInputs struct {
	size   offlineSize
	scens  []netem.Scenario
	stepAt sim.Time
	crrCfg rl.CRRConfig
}

// newOfflineInputs builds the tiny Set I grid at exp.Quick() sizes. The
// seed salts the scenarios, moves the rate step of the step scenarios
// within the middle of the run, and seeds the learner.
func newOfflineInputs(seed int64, size offlineSize) offlineInputs {
	q := exp.Quick()
	rng := rand.New(rand.NewSource(seed))
	stepAt := sim.Time(float64(size.duration)*(0.3+0.4*rng.Float64())) / sim.Millisecond * sim.Millisecond
	scens := netem.SetI(netem.SetIOptions{Level: q.Level, Duration: size.duration, StepAt: stepAt, Seed: seed})
	if size.scenarios > 0 {
		scens = scens[:size.scenarios]
	}
	return offlineInputs{
		size:   size,
		scens:  scens,
		stepAt: stepAt,
		crrCfg: rl.CRRConfig{Policy: q.Policy, Critic: q.Critic, Steps: size.steps, Seed: seed},
	}
}

func (in offlineInputs) flowSeconds() float64 {
	var s float64
	for _, sc := range in.scens {
		s += sc.Duration.Seconds() * float64(1+sc.CubicFlows)
	}
	return s * float64(len(in.size.schemes))
}

// offlineTrace is the state the traced scheme factories read: the tracer,
// the collect span their calls belong to, and the connections they saw.
// It is set before collector.Collect starts its workers and not changed
// while they run.
type offlineTrace struct {
	tr    *tracer
	root  int32
	conns *connSet
}

var (
	curOfflineTrace *offlineTrace
	registerOnce    sync.Once
)

// tracedScheme is the name under which scheme's traced wrapper is
// registered. Collect takes scheme names, so the traced round collects
// these names and the untraced round the plain ones.
func tracedScheme(scheme string) string { return "perfbench-traced-" + scheme }

func registerTracedSchemes() {
	registerOnce.Do(func() {
		for _, name := range cc.PoolNames() {
			name := name
			cc.Register(tracedScheme(name), func() tcp.CongestionControl {
				t := curOfflineTrace
				return newTracedCC(cc.MustNew(name), t.tr, t.root, t.conns)
			})
		}
	})
}

// offlineRound is one round's measurements.
type offlineRound struct {
	wall, collect  time.Duration
	mallocs, bytes uint64 // allocated during the collect phase
	stepUs         []float64
	digest         string
	pool           *collector.Pool
	skipped        int
}

// runOfflineRound collects, builds the dataset and trains, checking every
// stage. With t set the schemes run through their traced wrappers and each
// stage is a root span.
func runOfflineRound(in offlineInputs, t *offlineTrace, rep *report) (offlineRound, error) {
	var r offlineRound
	schemes := in.size.schemes
	if t != nil {
		schemes = make([]string, len(in.size.schemes))
		for i, s := range in.size.schemes {
			schemes[i] = tracedScheme(s)
		}
	}
	open := func(name string) int32 {
		if t == nil {
			return -1
		}
		return t.tr.open(name, -1)
	}
	closeSpan := func(id int32) {
		if t != nil {
			t.tr.close(id)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	id := open("collector.Collect")
	if t != nil {
		t.root = id
		curOfflineTrace = t
	}
	pool, err := collector.Collect(context.Background(), schemes, in.scens, collector.Options{Parallel: runtime.NumCPU()})
	closeSpan(id)
	r.collect = time.Since(start)
	runtime.ReadMemStats(&after)
	r.mallocs, r.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if err != nil {
		return r, fmt.Errorf("offline: collect: %w", err)
	}
	r.pool = pool
	rep.attempted += int64(len(schemes) * len(in.scens))
	if n := len(pool.Failed); n > 0 {
		rep.fail(int64(n), "offline: %d cells failed, first %s/%s: %s", n, pool.Failed[0].Scheme, pool.Failed[0].Env, pool.Failed[0].Err)
	}
	if n := len(pool.Trajs) + len(pool.Failed); n != len(schemes)*len(in.scens) {
		rep.fail(int64(len(schemes)*len(in.scens)-n), "offline: %d of %d cells missing from the pool", len(schemes)*len(in.scens)-n, len(schemes)*len(in.scens))
	}
	h := sha256.New()
	for _, tr := range pool.Trajs {
		if issues := collector.CheckTrajectory(tr, collector.QualityConfig{}); len(issues) > 0 {
			rep.fail(1, "offline: trajectory %s/%s: %s at step %d", tr.Scheme, tr.Env, issues[0].Reason, issues[0].Step)
		}
		// Scheme names differ between the traced and untraced rounds, so
		// the digest covers the environment and the trajectory only.
		fmt.Fprintf(h, "%s/%d;", tr.Env, len(tr.Steps))
		for _, s := range tr.Steps {
			binary.Write(h, binary.LittleEndian, math.Float64bits(s.Action))
			binary.Write(h, binary.LittleEndian, math.Float64bits(s.Reward))
		}
	}

	id = open("rl.BuildDataset")
	ds := rl.BuildDataset(pool, nil)
	closeSpan(id)
	learner := rl.NewCRR(ds, in.crrCfg)
	for i := 0; i < in.size.steps; i++ {
		rep.attempted++
		s := time.Now()
		id = open("rl.TrainStep")
		st := learner.TrainStep(ds)
		closeSpan(id)
		r.stepUs = append(r.stepUs, float64(time.Since(s))/1e3)
		if st.Skipped {
			r.skipped++
			rep.fail(1, "offline: train step %d skipped", st.Step)
		}
		if math.IsNaN(st.CriticLoss) || math.IsInf(st.CriticLoss, 0) || math.IsNaN(st.PolicyLoss) || math.IsInf(st.PolicyLoss, 0) {
			rep.fail(1, "offline: train step %d has non-finite loss", st.Step)
		}
		binary.Write(h, binary.LittleEndian, math.Float64bits(st.CriticLoss))
		binary.Write(h, binary.LittleEndian, math.Float64bits(st.PolicyLoss))
	}
	if !learner.ParamsFinite() {
		rep.fail(1, "offline: learner parameters are not finite after training")
	}
	fmt.Fprintf(h, "transitions=%d", ds.Transitions())
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	r.wall = time.Since(start)
	return r, nil
}

func runOffline(o opts) (*report, error) {
	size := offlineFull
	if o.tiny {
		size = offlineTiny
	}
	rep := newReport()
	// Set-up generates the inputs and collects one warm-up cell, so that
	// heap growth and first-use costs are paid before timing.
	in, setups, err := setupTimes(size.setups, func() (offlineInputs, error) {
		in := newOfflineInputs(o.seed, size)
		_, err := collector.CollectCell(context.Background(), in.size.schemes[0], in.scens[0], collector.Options{})
		return in, err
	}, func(offlineInputs) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{median(setups), "s", len(setups)}
	rep.note("inputs offline schemes=%d scenarios=%d step_at=%v crr_seed=%d", len(size.schemes), len(in.scens), in.stepAt, in.crrCfg.Seed)
	if o.trace {
		registerTracedSchemes()
	}

	digests := []map[string]bool{{}}
	b := newBudget(o.seconds)
	var rates, collects, steps, walls, mallocs, bytes []float64
	var stepTotal time.Duration
	type tracedRound struct {
		tr    *tracer
		round offlineRound
		conns connSet
	}
	var traced []*tracedRound
	for b.more() {
		r, err := runOfflineRound(in, nil, rep)
		if err != nil {
			return nil, err
		}
		unit := r.wall
		digests[0][r.digest] = true
		rates = append(rates, in.flowSeconds()/r.collect.Seconds())
		collects = append(collects, r.collect.Seconds())
		walls = append(walls, r.wall.Seconds())
		steps = append(steps, r.stepUs...)
		for _, us := range r.stepUs {
			stepTotal += time.Duration(us * 1e3)
		}
		mallocs = append(mallocs, float64(r.mallocs))
		bytes = append(bytes, float64(r.bytes))
		if o.trace {
			t := &tracedRound{tr: newTracer()}
			t.round, err = runOfflineRound(in, &offlineTrace{tr: t.tr, conns: &t.conns}, rep)
			if err != nil {
				return nil, err
			}
			digests[0][t.round.digest] = true
			traced = append(traced, t)
			unit += t.round.wall
		}
		b.done(unit)
	}
	rep.digest = joinDigests(digests, rep, "offline")
	rep.note("sim_s_per_s %.6g s/s n=%d (collect phase, = work_per_s)", median(rates), len(rates))
	rep.note("train_steps_per_s %.6g 1/s n=%d", float64(len(steps))/stepTotal.Seconds(), len(steps))
	if !o.trace {
		rep.e2e["work_per_s"] = metric{median(rates), "1/s", len(rates)}
		rep.e2e["op_p50_us"] = metric{quantile(steps, 0.5), "us", len(steps)}
		rep.e2e["op_p90_us"] = metric{quantile(steps, 0.9), "us", len(steps)}
		rep.note("train_step_p99_us %.6g us n=%d (not gated: its run-to-run spread is too wide)", quantile(steps, 0.99), len(steps))
		rep.e2e["max_rss_mb"] = metric{maxRSSMB(), "MB", 1}
		rep.note("failed_share %.6g (%d/%d cells and steps)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
		return rep, nil
	}

	first := traced[0]
	tcpT := first.conns.totals()
	var self, ccS, ccN, collectS, dsS, tracedWalls, accounted, stepMs []float64
	for _, t := range traced {
		if t.conns.totals() != tcpT {
			rep.fail(1, "offline: tcp counters differ between traced rounds")
		}
		st := t.tr.stats()
		var cs, cn float64
		for _, name := range ccSpanNames {
			cs += st[name].seconds()
			cn += float64(st[name].count)
		}
		self = append(self, t.tr.selfSeconds("collector.Collect"))
		ccS = append(ccS, cs)
		ccN = append(ccN, cn)
		collectS = append(collectS, st["collector.Collect"].seconds())
		dsS = append(dsS, st["rl.BuildDataset"].seconds())
		for _, d := range st["rl.TrainStep"].durs {
			stepMs = append(stepMs, d/1e6)
		}
		tracedWalls = append(tracedWalls, t.round.wall.Seconds())
		accounted = append(accounted, t.tr.rootSeconds()/t.round.wall.Seconds())
	}
	sent := float64(tcpT.sent)
	n := len(traced)
	pool := first.round.pool
	L := rep.layer
	L["sim.ns_per_pkt"] = metric{median(collects) * 1e9 / sent, "ns", len(collects)}
	L["sim.allocs_per_pkt"] = metric{median(mallocs) / sent, "count", len(mallocs)}
	L["sim.bytes_per_pkt"] = metric{median(bytes) / sent, "B", len(bytes)}
	L["rollout.self_s"] = metric{median(self), "s", n}
	setTCP(L, tcpT)
	L["cc.calls"] = metric{ccN[0], "count", 1}
	L["cc.s"] = metric{median(ccS), "s", n}
	L["collector.collect_s"] = metric{median(collectS), "s", n}
	L["collector.rollouts"] = metric{float64(len(pool.Trajs)), "count", 1}
	L["collector.transitions"] = metric{float64(pool.Transitions()), "count", 1}
	L["collector.failed_cells"] = metric{float64(len(pool.Failed)), "count", 1}
	L["rl.dataset_s"] = metric{median(dsS), "s", n}
	L["rl.step_ms_p50"] = metric{quantile(stepMs, 0.5), "ms", len(stepMs)}
	L["rl.step_ms_p99"] = metric{quantile(stepMs, 0.99), "ms", len(stepMs)}
	L["rl.skipped"] = metric{float64(first.round.skipped), "count", 1}
	L["trace.overhead"] = metric{median(tracedWalls) / median(walls), "ratio", n}
	L["trace.accounted"] = metric{median(accounted), "ratio", n}
	for i, t := range traced {
		if err := t.tr.write(spanPath(o, "offline", i)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
