package serve_test

import (
	"math"
	"math/rand"
	"testing"

	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/serve"
)

// Every deployment path decides through one rl.Decider, so for one model
// and one trace of raw states they must agree bitwise: the per-flow
// controller, the engine's synchronous Enqueue/Flush and async Decide, the
// promotion shadow fed the controller's own actions, and a hot-swap
// re-prime of the trace. The trace holds one non-finite state, where the
// serving paths answer with the ratio-1 fallback by design and leave the
// hidden state untouched; the controller, which has no fallback, is
// simply not shown that state.
func TestDecisionPathsAgree(t *testing.T) {
	model := core.WrapPolicy(testPolicy(71), nil, gr.Config{})
	const bad, startCwnd = 5, 100.0
	rng := rand.New(rand.NewSource(72))
	trace := make([][]float64, 12)
	for i := range trace {
		trace[i] = randState(rng)
	}
	trace[bad][3] = math.NaN()
	probe := randState(rng)

	// The per-flow controller, reset to the same window before every
	// decision so each new window is a pure function of the ratio.
	agent := model.NewAgent(0)
	agent.Record = true
	agentConn := benchConn(t)
	decide := func(state []float64) float64 {
		agentConn.SetCwnd(startCwnd)
		agent.Control(0, agentConn, state)
		return agentConn.Cwnd
	}
	want := make([]float64, len(trace))
	for i, st := range trace {
		if i == bad {
			want[i] = startCwnd // ratio-1 fallback
			continue
		}
		want[i] = decide(st)
	}
	if len(agent.Actions) != len(trace)-1 {
		t.Fatalf("controller recorded %d actions, want %d", len(agent.Actions), len(trace)-1)
	}

	// Synchronous engine path.
	syncEng := serve.NewEngine(serve.Config{Policy: model.Policy, Mask: model.Mask, ReprimeWindow: len(trace)})
	conn := benchConn(t)
	for i, st := range trace {
		conn.SetCwnd(startCwnd)
		syncEng.Enqueue(1, conn, st)
		syncEng.Flush(0)
		if conn.Cwnd != want[i] {
			t.Fatalf("Enqueue/Flush step %d: cwnd %v, controller %v", i, conn.Cwnd, want[i])
		}
	}

	// Asynchronous engine path.
	asyncEng := serve.NewEngine(serve.Config{Policy: model.Policy, Mask: model.Mask, Workers: 1})
	asyncEng.Start()
	for i, st := range trace {
		got, fallback, err := asyncEng.Decide(1, startCwnd, st)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] || fallback != (i == bad) {
			t.Fatalf("Decide step %d: cwnd %v fallback %v, controller %v", i, got, fallback, want[i])
		}
	}
	asyncEng.Close()

	// The shadow, with the incumbent's actions equal to its own, must
	// measure no divergence at all.
	sh := promote.NewShadow(model, promote.ShadowConfig{})
	j := 0
	for i, st := range trace {
		if i == bad {
			sh.Observe(1, st, 1, true)
			continue
		}
		sh.Observe(1, st, rl.UToRatio(agent.Actions[j]), false)
		j++
	}
	if st := sh.Stats(); st.Mirrored != int64(len(trace)-1) || st.Fallbacks != 1 || st.MeanAbsDiv != 0 || st.MaxAbsDiv != 0 {
		t.Fatalf("shadow of the incumbent itself: %+v, want every decision mirrored at divergence 0", st)
	}

	// Re-priming the session from its window rebuilds the hidden state
	// the serving path reached, and the next decision matches the
	// controller's.
	before := syncEng.SessionHidden(1)
	stats, err := syncEng.Swap(model.Policy, model.Mask)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprimed != 1 {
		t.Fatalf("swap: %v, want the session re-primed", stats)
	}
	after := syncEng.SessionHidden(1)
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("re-primed hidden[%d] = %v, serving path had %v", i, after[i], before[i])
		}
	}
	conn.SetCwnd(startCwnd)
	syncEng.Enqueue(1, conn, probe)
	syncEng.Flush(0)
	if next := decide(probe); conn.Cwnd != next {
		t.Fatalf("decision after re-prime: cwnd %v, controller %v", conn.Cwnd, next)
	}
}
