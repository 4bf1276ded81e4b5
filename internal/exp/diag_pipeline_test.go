package exp

import (
	"context"
	"fmt"
	"os"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
)

const diagPool = "/tmp/sage_diag_pool.gob.gz"

func diagGetPool(t *testing.T) *collector.Pool {
	if p, err := collector.Load(diagPool); err == nil {
		return p
	}
	s := Quick()
	scens := append(s.SetI(), s.SetII()...)
	p, err := collector.Collect(context.Background(), cc.PoolNames(), scens, collector.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(diagPool); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiagTrainDeploy(t *testing.T) {
	if os.Getenv("SAGE_DIAG") == "" {
		t.Skip("diagnostic; set SAGE_DIAG=1")
	}
	pool := diagGetPool(t)
	s := Quick()
	if v := os.Getenv("SAGE_STEPS"); v != "" {
		fmt.Sscanf(v, "%d", &s.TrainSteps)
	}
	cfg := s.crr()
	fmt.Printf("pool: %d transitions; training %d steps...\n", pool.Transitions(), cfg.Steps)
	model := core.Train(pool, core.Config{CRR: cfg}, func(step int, cl, pl float64) {
		if step%200 == 0 {
			fmt.Printf("  step %d critic %.3f policy %.3f\n", step, cl, pl)
		}
	})
	ent := eval.ControllerEntrant("sage", func() rollout.Controller { return model.NewAgent(1) })

	mrtt := 20 * sim.Millisecond
	envs := []netem.Scenario{
		{Name: "empty-48", Rate: netem.FlatRate(netem.Mbps(48)), MinRTT: mrtt,
			QueueBytes: 2 * netem.BDPBytes(netem.Mbps(48), mrtt), Duration: 8 * sim.Second},
		{Name: "deep-24", Rate: netem.FlatRate(netem.Mbps(24)), MinRTT: mrtt,
			QueueBytes: 8 * netem.BDPBytes(netem.Mbps(24), mrtt), Duration: 8 * sim.Second},
		{Name: "vs-cubic-24", Rate: netem.FlatRate(netem.Mbps(24)), MinRTT: 40 * sim.Millisecond,
			QueueBytes: 2 * netem.BDPBytes(netem.Mbps(24), 40*sim.Millisecond),
			Duration:   20 * sim.Second, CubicFlows: 1, TestStart: 2 * sim.Second},
	}
	for _, sc := range envs {
		res := ent.Run(sc, rollout.Options{})
		fmt.Printf("%-10s %-12s thr=%6.2fMbps rtt=%6.1fms loss=%.3f fair=%.1f\n",
			ent.Name, sc.Name, res.ThroughputBps/1e6, res.AvgRTT.Millis(), res.LossRate, res.FairShareBps/1e6)
	}
}
