package promote_test

import (
	"math"
	"testing"

	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

func shadowState(i int) []float64 {
	v := make([]float64, gr.StateDim)
	for j := range v {
		v[j] = float64((i+j)%5) * 0.1
	}
	return v
}

// The shadow must measure exactly the action gap between candidate and
// incumbent: with constant-action models the divergence is known in
// closed form (|u_cand - u_live| on every mirrored decision, both inside
// [−1, 1], so applied-action space and u-space agree).
func TestShadowDivergenceExact(t *testing.T) {
	cand := constModel(0.25)
	reg := telemetry.NewRegistry()
	sh := promote.NewShadow(cand, promote.ShadowConfig{Metrics: reg})

	liveRatio := rl.UToRatio(-0.5) // the incumbent's constant action
	sh.TagSession(1, "flap")
	sh.TagSession(2, "blackout")
	for i := 0; i < 10; i++ {
		sh.Observe(1, shadowState(i), liveRatio, false)
	}
	for i := 0; i < 4; i++ {
		sh.Observe(2, shadowState(i), liveRatio, false)
	}
	sh.Observe(3, shadowState(0), 1.0, true) // a safety no-op: counted, never mirrored

	st := sh.Stats()
	if st.Observed != 15 || st.Mirrored != 14 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 15 observed / 14 mirrored / 1 fallback", st)
	}
	want := math.Abs(0.25 - (-0.5))
	if math.Abs(st.MeanAbsDiv-want) > 1e-12 || math.Abs(st.MaxAbsDiv-want) > 1e-12 {
		t.Fatalf("divergence mean=%v max=%v, want exactly %v", st.MeanAbsDiv, st.MaxAbsDiv, want)
	}
	if st.PerRegime["flap"].N != 10 || st.PerRegime["blackout"].N != 4 {
		t.Fatalf("per-regime = %+v, want flap=10 blackout=4", st.PerRegime)
	}
	if math.Abs(st.PerRegime["flap"].MeanAbsDiv-want) > 1e-12 {
		t.Fatalf("flap divergence = %v, want %v", st.PerRegime["flap"].MeanAbsDiv, want)
	}
	if got := reg.Counter(promote.MetricShadowMirrored).Value(); got != 14 {
		t.Fatalf("%s = %d, want 14", promote.MetricShadowMirrored, got)
	}

	// Divergence is measured between applied actions: a candidate whose
	// raw GMM mean (2.5) lies beyond the [−1, 1] clamp applies ratio 2,
	// exactly what an incumbent at u = +1 applied.
	over := promote.NewShadow(constModel(2.5), promote.ShadowConfig{})
	for i := 0; i < 4; i++ {
		over.Observe(1, shadowState(i), rl.UToRatio(1), false)
	}
	if st := over.Stats(); st.Mirrored != 4 || st.MeanAbsDiv != 0 || st.MaxAbsDiv != 0 {
		t.Fatalf("over-range candidate: %+v, want 4 mirrored at divergence exactly 0", st)
	}
}

// Fraction selects whole sessions, deterministically: a session is either
// always mirrored or never, so the candidate's recurrent state stays
// coherent, and a nil metrics registry costs nothing.
func TestShadowFractionSelectsWholeSessions(t *testing.T) {
	cand := constModel(0)
	sh := promote.NewShadow(cand, promote.ShadowConfig{Fraction: 0.5, Seed: 3})

	const sessions = 64
	mirroredAt := make(map[uint64]int64)
	for round := 0; round < 3; round++ {
		for sid := uint64(1); sid <= sessions; sid++ {
			before := sh.Stats().Mirrored
			sh.Observe(sid, shadowState(int(sid)), 1.0, false)
			if sh.Stats().Mirrored > before {
				mirroredAt[sid]++
			}
		}
	}
	picked := 0
	for sid, n := range mirroredAt {
		if n != 3 {
			t.Fatalf("session %d mirrored %d/3 rounds: selection is not per-session", sid, n)
		}
		picked++
	}
	if picked == 0 || picked == sessions {
		t.Fatalf("fraction 0.5 picked %d/%d sessions", picked, sessions)
	}
}

// The candidate pool is bounded: observing far more sessions than
// MaxSessions must not grow without limit.
func TestShadowSessionCap(t *testing.T) {
	cand := constModel(0)
	sh := promote.NewShadow(cand, promote.ShadowConfig{MaxSessions: 8})
	for sid := uint64(1); sid <= 100; sid++ {
		sh.Observe(sid, shadowState(int(sid)), 1.0, false)
	}
	if st := sh.Stats(); st.Mirrored != 100 {
		t.Fatalf("mirrored = %d, want 100 (the cap bounds residency, not observation)", st.Mirrored)
	}
}
