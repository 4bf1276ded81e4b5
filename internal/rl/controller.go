package rl

import (
	"math/rand"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// Decider is Sage's one decision step: the only code that turns a raw GR
// state into an action. Step masks the state and advances the recurrent
// policy one interval; Act turns the resulting GMM head into u ∈ [−1, 1],
// which a caller applies as cwnd ×= UToRatio(u). The per-flow controller,
// the promotion shadow and the serving engine's hot-swap re-prime all run
// through it, and the engine's batched pass uses Act per row, so every
// deployment path makes bitwise the same decision for the same model and
// trace.
//
// A Decider holds the mask/mean scratch but no recurrent state: callers
// keep their own hidden vectors, so one Decider serves any number of
// flows. It is not safe for concurrent use.
type Decider struct {
	Policy *nn.Policy
	Mask   []int

	maskBuf []float64 // masked state of the last Step
	meanBuf []float64 // GMM weight normalization scratch
}

// NewDecider returns a decider for pol over the mask (nil = the full
// 69-signal state vector).
func NewDecider(pol *nn.Policy, mask []int) *Decider {
	if mask == nil {
		mask = gr.MaskFull()
	}
	return &Decider{Policy: pol, Mask: mask, meanBuf: make([]float64, pol.GMM.K)}
}

// Step masks state and runs one forward pass from hidden, returning the
// GMM head and the next hidden state.
func (d *Decider) Step(state, hidden []float64) (head, next []float64) {
	d.maskBuf = gr.ApplyMaskInto(d.maskBuf, state, d.Mask)
	head, next, _ = d.Policy.Forward(d.maskBuf, hidden)
	return head, next
}

// Act turns a head into the action u: the mixture mean, or a sample when
// rng is non-nil.
func (d *Decider) Act(head []float64, rng *rand.Rand) float64 {
	return Act(d.Policy.GMM, head, d.meanBuf, rng)
}

// Act is Decider.Act with caller-owned scratch (meanBuf, len ≥ K), for the
// serving engine's per-worker batched pass. u is clamped to [−1, 1]; NaN
// passes through so callers can detect a poisoned head.
func Act(g nn.GMM, head, meanBuf []float64, rng *rand.Rand) float64 {
	if rng != nil {
		return clampU(g.Sample(head, rng))
	}
	return clampU(g.MeanInto(head, meanBuf))
}

// PolicyController drives a connection's cwnd from a policy network: the
// per-flow deployment controller (core.Model.NewAgent) and the rollout
// controller of the online learners. It implements rollout.Controller.
type PolicyController struct {
	*Decider

	hidden []float64
	rng    *rand.Rand // non-nil when sampling (stochastic) instead of the mixture mean

	// Recorded trajectory (for online learners).
	Record  bool
	States  [][]float64
	Actions []float64
}

// NewPolicyController returns a controller with fresh recurrent state. A
// stochastic controller samples its actions from an RNG seeded by seed.
func NewPolicyController(pol *nn.Policy, mask []int, stochastic bool, seed int64) *PolicyController {
	pc := &PolicyController{Decider: NewDecider(pol, mask), hidden: pol.InitHidden()}
	if stochastic {
		pc.rng = rand.New(rand.NewSource(seed + 991))
	}
	return pc
}

// Reset clears the recurrent state (call between flows, or when the
// runtime guardian re-admits the policy after a fallback episode).
func (pc *PolicyController) Reset() { pc.hidden = pc.Policy.InitHidden() }

// Control implements rollout.Controller: one Step, one Act, then
// cwnd ×= 2^u above a floor of 2 packets (the connection's own MaxCwnd is
// the ceiling). The decision path allocates only what Policy.Forward
// itself needs (and a trajectory copy when recording).
func (pc *PolicyController) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	head, h := pc.Step(state, pc.hidden)
	pc.hidden = h
	u := pc.Act(head, pc.rng)
	if pc.Record {
		pc.States = append(pc.States, append([]float64(nil), pc.maskBuf...))
		pc.Actions = append(pc.Actions, u)
	}
	conn.SetCwnd(tcp.ClampCwnd(conn.Cwnd*UToRatio(u), 2, 0))
}
