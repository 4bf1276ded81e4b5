package exp

import (
	"context"
	"fmt"
	"math/rand"

	"sage/internal/cc"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
)

// Fig05 tabulates the TCP-friendliness reward R2 = exp(−8(x−1)²) across
// x = r/fr, the curve sketched in Figure 5.
func Fig05() *Table {
	t := &Table{Title: "Fig. 5 — TCP-friendliness reward R2(x), x = r/fr",
		Header: []string{"x", "R2"}}
	for x := 0.0; x <= 2.001; x += 0.25 {
		t.AddRow(fmt.Sprintf("%.2f", x), fmt.Sprintf("%.4f", gr.R2(x*10e6, 10e6)))
	}
	return t
}

// fig11Scenario is the paper's distributional-shift environment: a step
// from 24 to 96 Mb/s.
func fig11Scenario(s Sizing) netem.Scenario {
	mrtt := 40 * sim.Millisecond
	return netem.Scenario{
		Name:       "step-24to96-fig11",
		Rate:       netem.StepRate(netem.Mbps(24), netem.Mbps(96), s.SetIDur/2),
		MinRTT:     mrtt,
		QueueBytes: 2 * netem.BDPBytes(netem.Mbps(96), mrtt),
		Duration:   s.SetIDur,
		Seed:       424,
	}
}

// Fig11 reproduces Figure 11: roll Sage, Vegas and BC in a step environment
// from the pool, and report the CDF of each trajectory's minimum pairwise
// cosine distance to the pool transitions. Vegas (a pool scheme) should sit
// near zero; Sage and BC observe genuinely shifted trajectories.
func Fig11(a *Artifacts) *Table {
	sc := fig11Scenario(a.S)
	pool := a.Pool()

	// Pool transitions from comparable single-flow environments.
	var poolVecs [][]float64
	for _, tr := range pool.Trajs {
		if tr.MultiFlow {
			continue
		}
		poolVecs = append(poolVecs, eval.TransitionVectors(tr.Steps)...)
	}
	stride := 1
	if len(poolVecs) > 4000 {
		stride = len(poolVecs) / 4000
	}

	rows := []struct {
		name string
		ent  eval.Entrant
	}{
		{"vegas", a.Entrant("vegas")},
		{"sage", a.Entrant("sage")},
		{"bc", a.Entrant("bc")},
	}
	t := &Table{Title: "Fig. 11 — Distance CDF (distributional shift)",
		Header: []string{"scheme", "p50", "p65", "p90", "thr_mbps", "rtt_ms"}}
	for _, r := range rows {
		res := r.ent.Run(sc, rollout.Options{CollectSteps: true})
		qs := eval.TransitionVectors(res.Steps)
		ds := eval.MinDistances(qs, poolVecs, stride)
		t.AddRow(r.name,
			fmt.Sprintf("%.3f", eval.Percentile(ds, 50)),
			fmt.Sprintf("%.3f", eval.Percentile(ds, 65)),
			fmt.Sprintf("%.3f", eval.Percentile(ds, 90)),
			mbps(res.ThroughputBps),
			msStr(res.AvgRTT),
		)
	}
	return t
}

// Fig13 reproduces Figure 13: the Similarity Index of Sage's trajectories
// to each pool scheme's trajectories over randomly chosen environments —
// the scheme Sage most resembles should change across environments.
func Fig13(a *Artifacts, envs int) *Table {
	if envs == 0 {
		envs = 8
	}
	pool := a.Pool()
	scens := append(a.S.SetI(), a.S.SetII()...)
	rng := rand.New(rand.NewSource(a.S.Seed + 313))
	if envs > len(scens) {
		envs = len(scens)
	}
	perm := rng.Perm(len(scens))[:envs]

	// Index pool trajectories by (env, scheme).
	byEnvScheme := map[string]map[string][][]float64{}
	for _, tr := range pool.Trajs {
		m := byEnvScheme[tr.Env]
		if m == nil {
			m = map[string][][]float64{}
			byEnvScheme[tr.Env] = m
		}
		m[tr.Scheme] = eval.TransitionVectors(tr.Steps)
	}

	schemes := pool.Schemes()
	header := append([]string{"env"}, schemes...)
	header = append(header, "most_similar")
	t := &Table{Title: "Fig. 13 — Sage's Similarity Index to pool schemes", Header: header}
	sage := a.Entrant("sage")
	for _, idx := range perm {
		sc := scens[idx]
		res := sage.Run(sc, rollout.Options{CollectSteps: true})
		qs := eval.TransitionVectors(res.Steps)
		row := []string{sc.Name}
		best, bestV := "", -1.0
		for _, scheme := range schemes {
			refs := byEnvScheme[sc.Name][scheme]
			v := eval.MeanSimilarity(qs, refs, 4)
			row = append(row, fmt.Sprintf("%.3f", v))
			if v > bestV {
				bestV, best = v, scheme
			}
		}
		row = append(row, best)
		t.AddRow(row...)
	}
	return t
}

// GranularityModels trains (memoized) the Fig. 14 variants: pools rebuilt
// with uniform observation windows Small=10, Medium=200, Large=1000, plus
// the default three-timescale Sage.
func (a *Artifacts) GranularityModels() map[string]*core.Model {
	out := map[string]*core.Model{"sage": a.Sage()}
	for _, v := range []struct {
		name   string
		window int
	}{{"sage-s", 10}, {"sage-m", 200}, {"sage-l", 1000}} {
		v := v
		out[v.name] = a.memo(v.name, func() *core.Model {
			grCfg := gr.Config{}.WithUniformWindow(v.window)
			scens := append(a.S.SetI(), a.S.SetII()...)
			pool := mustCollect(collector.Collect(context.Background(), cc.PoolNames(), scens,
				collector.Options{GR: grCfg, Parallel: a.S.Parallel}))
			return core.Train(pool, core.Config{GR: grCfg, CRR: a.S.crr()}, nil)
		})
	}
	return out
}

// Fig16 reproduces Figure 16: embed the last-hidden-layer activations of
// Sage-s/m/l over Set II environments with t-SNE, and score how cleanly the
// environments separate (the paper's claim: only the large-window model
// distinguishes multi-flow environments).
func Fig16(a *Artifacts, envs int) *Table {
	if envs == 0 {
		envs = 7
	}
	models := a.GranularityModels()
	setII := a.S.SetII()
	if envs > len(setII) {
		envs = len(setII)
	}
	t := &Table{Title: "Fig. 16 — t-SNE cluster separation of last hidden layer (Set II envs)",
		Header: []string{"model", "cluster_separation", "points"}}
	for _, name := range []string{"sage-s", "sage-m", "sage-l"} {
		model := models[name]
		var pts [][]float64
		var labels []int
		for e := 0; e < envs; e++ {
			sc := setII[e]
			agent := model.NewAgent(int64(e))
			res := eval.ControllerEntrant(name, func() rollout.Controller { return agent }).
				Run(sc, rollout.Options{GR: model.GR, CollectSteps: true})
			// Subsample embeddings along the trajectory.
			hidden := model.Policy.InitHidden()
			stride := len(res.Steps) / 12
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < len(res.Steps); i += stride {
				var emb []float64
				emb, hidden = lastHiddenEmbedding(model, res.Steps[i].State, hidden)
				pts = append(pts, emb)
				labels = append(labels, e)
			}
		}
		embedding := eval.TSNE(pts, eval.TSNEOptions{Perplexity: 8, Iterations: 250, Seed: a.S.Seed})
		sep := eval.ClusterSeparation(embedding, labels)
		t.AddRow(name, fmt.Sprintf("%.2f", sep), itoa(len(pts)))
	}
	return t
}

// lastHiddenEmbedding runs the model's policy one step on state from hidden
// and returns the last hidden layer activation — the embedding Fig. 16
// visualizes — plus the next recurrent state.
func lastHiddenEmbedding(m *core.Model, state, hidden []float64) (emb, next []float64) {
	_, next, cache := m.Policy.Forward(gr.ApplyMask(state, m.Mask), hidden)
	return m.Policy.LastHidden(cache), next
}
