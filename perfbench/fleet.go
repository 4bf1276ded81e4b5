package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sage/internal/cc"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/guard"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// fleetSize is the shape of one fleet replicate.
type fleetSize struct {
	flows      int
	duration   sim.Time
	rateMbps   float64
	minRTT     sim.Time
	joinSpread sim.Time // flow i joins at a seeded time in the i-th slot of [0, joinSpread)
	schedules  int      // distinct seeded join schedules, cycled over replicates
	setups     int
}

var (
	fleetFull = fleetSize{flows: 32, duration: 10 * sim.Second, rateMbps: 96,
		minRTT: 40 * sim.Millisecond, joinSpread: 100 * sim.Millisecond, schedules: 8, setups: 21}
	fleetTiny = fleetSize{flows: 4, duration: sim.Second, rateMbps: 96,
		minRTT: 40 * sim.Millisecond, joinSpread: 20 * sim.Millisecond, schedules: 2, setups: 2}
)

// fleetInputs is everything the fleet replicates run on: the policy every
// flow is served by, the bottleneck, and the seeded join schedules.
// Replicate r runs schedule r mod len(schedules): how hard the loss path
// is driven depends on the schedule, so a run's median covers several
// schedules and stays comparable across seeds.
type fleetInputs struct {
	size      fleetSize
	policy    *nn.Policy
	sc        netem.Scenario
	schedules [][]sim.Time
}

// productionPolicy is the production default architecture with a fitted
// normalizer. The model is part of the program under test, not of the
// workload: callers pass a constant seed, never the seed argument.
func productionPolicy(seed int64) *nn.Policy {
	p := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: seed})
	rng := rand.New(rand.NewSource(2))
	fit := make([][]float64, 256)
	for i := range fit {
		fit[i] = randState(rng)
	}
	p.Norm = nn.FitNormalizer(fit)
	return p
}

func randState(rng *rand.Rand) []float64 {
	v := make([]float64, gr.StateDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// fleetSchedules draws the join schedules: flow i joins at a uniformly
// drawn millisecond within the i-th of size.flows equal slots of
// [0, joinSpread).
func fleetSchedules(seed int64, size fleetSize) [][]sim.Time {
	rng := rand.New(rand.NewSource(seed))
	slot := size.joinSpread / sim.Time(size.flows)
	out := make([][]sim.Time, size.schedules)
	for k := range out {
		out[k] = make([]sim.Time, size.flows)
		for i := range out[k] {
			out[k][i] = sim.Time(i)*slot + sim.Time(rng.Int63n(int64(slot/sim.Millisecond)))*sim.Millisecond
		}
	}
	return out
}

// saveModel writes productionPolicy(seed) as a model file in dir, so set-up
// loads it the way a deployment does.
func saveModel(dir string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("policy-%d.model", seed))
	return path, core.WrapPolicy(productionPolicy(seed), nil, gr.Config{}).Save(path)
}

func loadPolicy(path string) (*nn.Policy, error) {
	m, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	return m.Policy, nil
}

func newFleetInputs(seed int64, size fleetSize, model string) (fleetInputs, error) {
	pol, err := loadPolicy(model)
	if err != nil {
		return fleetInputs{}, err
	}
	rate := netem.Mbps(size.rateMbps)
	return fleetInputs{
		size:   size,
		policy: pol,
		sc: netem.Scenario{
			Name:       fmt.Sprintf("fleet-%gmbps-%gms-1bdp", size.rateMbps, size.minRTT.Millis()),
			Rate:       netem.FlatRate(rate),
			MinRTT:     size.minRTT,
			QueueBytes: netem.BDPBytes(rate, size.minRTT),
			Duration:   size.duration,
		},
		schedules: fleetSchedules(seed, size),
	}, nil
}

// flowSeconds is the simulated time all flows of schedule k are active,
// summed.
func (in fleetInputs) flowSeconds(k int) float64 {
	var s float64
	for _, st := range in.schedules[k] {
		s += (in.sc.Duration - st).Seconds()
	}
	return s
}

// fleetRun is one replicate's outcome.
type fleetRun struct {
	wall      time.Duration
	results   []rollout.FlowResult
	guards    []*guard.BatchGuarded
	intervals []float64 // wall time of each control interval, µs (untraced only)
}

// intervalClock wraps flow 0's controller in the untraced run and notes
// the time of each FlushBatch. rollout flushes every batching controller
// once per GR interval, flow 0's first, so consecutive marks are one full
// interval of the fleet: advancing the simulation, the control sweep and
// the batched decision.
type intervalClock struct {
	*guard.BatchGuarded
	marks []time.Time
}

func (c *intervalClock) FlushBatch(now sim.Time) {
	c.marks = append(c.marks, time.Now())
	c.BatchGuarded.FlushBatch(now)
}

// runFleetOnce runs one replicate: a fresh engine shared by every flow,
// each flow guard.NewBatched(serve.NewController(eng)) over TCP Pure —
// the fleet wiring the README prescribes. With tr set the flows and their
// congestion controllers are wrapped and spanned under root.
func runFleetOnce(in fleetInputs, k int, tr *tracer, rows *batchRows, conns *connSet) fleetRun {
	start := time.Now()
	root := int32(-1)
	if tr != nil {
		root = tr.open("rollout.RunMulti", -1)
	}
	eng := serve.NewEngine(serve.Config{Policy: in.policy, MaxBatch: 1024, MaxSessions: in.size.flows + 1})
	specs := make([]rollout.FlowSpec, in.size.flows)
	run := fleetRun{guards: make([]*guard.BatchGuarded, in.size.flows)}
	var clock *intervalClock
	for i := range specs {
		var gcfg guard.Config
		var pure tcp.CongestionControl = cc.MustNew("pure")
		if tr != nil {
			pure = newTracedCC(pure, tr, root, conns)
			gcfg.NewFallback = func() tcp.CongestionControl {
				return newTracedCC(cc.MustNew("cubic"), tr, root, conns)
			}
		}
		g := guard.NewBatched(serve.NewController(eng), gcfg)
		run.guards[i] = g
		var ctl rollout.Controller = g
		switch {
		case tr != nil:
			ctl = &tracedFlow{inner: g, tr: tr, root: root, rows: rows}
		case i == 0:
			clock = &intervalClock{BatchGuarded: g}
			ctl = clock
		}
		specs[i] = rollout.FlowSpec{Name: fmt.Sprintf("f%02d", i), CC: pure, Controller: ctl, Start: in.schedules[k][i]}
	}
	run.results = rollout.RunMulti(in.sc, specs, rollout.MultiOptions{})
	if tr != nil {
		tr.close(root)
	}
	run.wall = time.Since(start)
	if clock != nil {
		prev := start
		for _, m := range clock.marks {
			run.intervals = append(run.intervals, float64(m.Sub(prev))/1e3)
			prev = m
		}
	}
	return run
}

// checkFleet verifies one replicate and returns its outcome digest: every
// flow ran to the end and delivered bytes, and the bytes all flows
// delivered fit through the bottleneck.
func checkFleet(in fleetInputs, k int, run fleetRun, rep *report) string {
	h := sha256.New()
	var bits float64
	for i, r := range run.results {
		rep.attempted++
		window := (in.sc.Duration - in.schedules[k][i]).Seconds()
		switch {
		case r.Interrupted:
			rep.fail(1, "fleet: flow %s interrupted", r.Name)
		case !(r.ThroughputBps > 0):
			rep.fail(1, "fleet: flow %s delivered nothing", r.Name)
		}
		bits += r.ThroughputBps * window
		binary.Write(h, binary.LittleEndian, math.Float64bits(r.ThroughputBps))
		binary.Write(h, binary.LittleEndian, int64(r.AvgOWD))
	}
	capBits := in.sc.Rate.MeanRateUntil(in.sc.Duration) * in.sc.Duration.Seconds()
	if bits > capBits*(1+1e-9) {
		rep.fail(1, "fleet: flows delivered %.0f bits, link carries at most %.0f", bits, capBits)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runFleet(o opts) (*report, error) {
	size := fleetFull
	if o.tiny {
		size = fleetTiny
	}
	rep := newReport()
	model, err := saveModel(o.dir, 1)
	if err != nil {
		return nil, err
	}
	in, setups, err := setupTimes(size.setups,
		func() (fleetInputs, error) { return newFleetInputs(o.seed, size, model) },
		func(fleetInputs) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{median(setups), "s", len(setups)}
	for k, s := range in.schedules {
		rep.note("inputs fleet flows=%d scenario=%s schedule=%d joins=%v", size.flows, in.sc.Name, k, s)
	}

	digests := make([]map[string]bool, len(in.schedules))
	for k := range digests {
		digests[k] = map[string]bool{}
	}
	b := newBudget(o.seconds)
	var walls, rates, intervals, mallocs, bytes []float64
	type tracedRun struct {
		k     int
		tr    *tracer
		run   fleetRun
		rows  batchRows
		conns connSet
	}
	var traced []*tracedRun
	for r := 0; b.more(); r++ {
		k := r % len(in.schedules)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run := runFleetOnce(in, k, nil, nil, nil)
		runtime.ReadMemStats(&after)
		unit := run.wall
		digests[k][checkFleet(in, k, run, rep)] = true
		walls = append(walls, run.wall.Seconds())
		rates = append(rates, in.flowSeconds(k)/run.wall.Seconds())
		intervals = append(intervals, run.intervals...)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		if o.trace {
			t := &tracedRun{k: k, tr: newTracer()}
			t.run = runFleetOnce(in, k, t.tr, &t.rows, &t.conns)
			digests[k][checkFleet(in, k, t.run, rep)] = true
			traced = append(traced, t)
			unit += t.run.wall
		}
		b.done(unit)
	}
	rep.digest = joinDigests(digests, rep, "fleet")
	rep.note("sim_s_per_s %.6g s/s n=%d (= work_per_s)", median(rates), len(rates))
	if !o.trace {
		rep.e2e["work_per_s"] = metric{median(rates), "1/s", len(rates)}
		rep.e2e["op_p50_us"] = metric{quantile(intervals, 0.5), "us", len(intervals)}
		rep.e2e["op_p90_us"] = metric{quantile(intervals, 0.9), "us", len(intervals)}
		rep.note("interval_p99_us %.6g us n=%d (not gated: its run-to-run spread is too wide)", quantile(intervals, 0.99), len(intervals))
		rep.e2e["max_rss_mb"] = metric{maxRSSMB(), "MB", 1}
		rep.note("failed_share %.6g (%d/%d flows)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
		return rep, nil
	}

	// Per-layer split. Counts come from the first traced replicate (join
	// schedule 0) and must repeat exactly in every traced replicate of the
	// same schedule; times are medians over replicates. Each traced
	// replicate ran the schedule of the untraced one before it, so per-packet
	// costs pair the untraced run's time and allocations with the traced
	// run's packet count.
	first := traced[0]
	tcpT := first.conns.totals()
	seen := map[int]tcpTotals{}
	var self, ccS, ccN, guardS, flushS, tracedWalls, accounted, nsPkt, allocPkt, bytesPkt []float64
	for i, t := range traced {
		tot := t.conns.totals()
		if prev, ok := seen[t.k]; ok && prev != tot {
			rep.fail(1, "fleet: tcp counters differ between traced replicates of schedule %d", t.k)
		}
		seen[t.k] = tot
		sent := float64(tot.sent)
		nsPkt = append(nsPkt, walls[i]*1e9/sent)
		allocPkt = append(allocPkt, mallocs[i]/sent)
		bytesPkt = append(bytesPkt, bytes[i]/sent)
		st := t.tr.stats()
		var cs, cn float64
		for _, name := range ccSpanNames {
			cs += st[name].seconds()
			cn += float64(st[name].count)
		}
		self = append(self, t.tr.selfSeconds("rollout.RunMulti"))
		ccS = append(ccS, cs)
		ccN = append(ccN, cn)
		guardS = append(guardS, st["guard.control"].seconds())
		flushS = append(flushS, st["serve.flush"].seconds())
		tracedWalls = append(tracedWalls, t.run.wall.Seconds())
		accounted = append(accounted, t.tr.rootSeconds()/t.run.wall.Seconds())
	}
	var trips, clamps int64
	for _, g := range first.run.guards {
		trips += int64(g.Trips())
		clamps += g.Clamps()
	}
	n := len(traced)
	L := rep.layer
	L["sim.ns_per_pkt"] = metric{median(nsPkt), "ns", n}
	L["sim.allocs_per_pkt"] = metric{median(allocPkt), "count", n}
	L["sim.bytes_per_pkt"] = metric{median(bytesPkt), "B", n}
	L["rollout.self_s"] = metric{median(self), "s", n}
	setTCP(L, tcpT)
	L["cc.calls"] = metric{ccN[0], "count", 1}
	L["cc.s"] = metric{median(ccS), "s", n}
	L["guard.control_s"] = metric{median(guardS), "s", n}
	L["guard.trips"] = metric{float64(trips), "count", 1}
	L["guard.clamps"] = metric{float64(clamps), "count", 1}
	L["serve.flush_s"] = metric{median(flushS), "s", n}
	L["serve.flushes"] = metric{float64(first.rows.flushes), "count", 1}
	L["serve.rows_per_flush"] = metric{float64(first.rows.rows) / float64(max(first.rows.flushes, 1)), "count", 1}
	L["trace.overhead"] = metric{median(tracedWalls) / median(walls), "ratio", n}
	L["trace.accounted"] = metric{median(accounted), "ratio", n}
	for i, t := range traced {
		if err := t.tr.write(spanPath(o, "fleet", i)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// joinDigests renders one digest per input set, in order, and fails the run
// when an input set produced more than one.
func joinDigests(digests []map[string]bool, rep *report, workload string) string {
	var parts []string
	for k, ds := range digests {
		if len(ds) > 1 {
			rep.fail(1, "%s: input set %d produced %d distinct outcome digests", workload, k, len(ds))
		}
		for d := range ds {
			parts = append(parts, fmt.Sprintf("%d:%s", k, d))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func setTCP(L map[string]metric, t tcpTotals) {
	L["tcp.sent_pkts"] = metric{float64(t.sent), "count", 1}
	L["tcp.lost_pkts"] = metric{float64(t.lost), "count", 1}
	L["tcp.delivered_pkts"] = metric{float64(t.delivered), "count", 1}
	L["tcp.delivered_per_sent"] = metric{float64(t.delivered) / math.Max(float64(t.sent), 1), "ratio", 1}
	L["tcp.rtos"] = metric{float64(t.rtos), "count", 1}
	L["tcp.spurious_retrans"] = metric{float64(t.spurious), "count", 1}
}
