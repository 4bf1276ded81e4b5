package tcp

import (
	"fmt"
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// TestSpuriousAccountingGolden pins the loss and spurious-retransmission
// counts of an overdriven flow on a path that reorders data packets by up
// to 400 ms and duplicates ACKs. Reordered packets are declared lost long
// before their ACKs arrive, so many of those late ACKs land on records the
// sender has already compacted out of its record ring; each must still be
// counted exactly once as a spurious retransmission and a delivery.
func TestSpuriousAccountingGolden(t *testing.T) {
	for _, tc := range []struct {
		reorder                         float64
		sent, lost, spurious, delivered int64
	}{
		{0.01, 140194, 60826, 757, 79825},
		{0.05, 138795, 62326, 3633, 79802},
		{0.2, 135302, 70013, 14667, 79656},
	} {
		t.Run(fmt.Sprint(tc.reorder), func(t *testing.T) {
			loop := sim.NewLoop()
			n := netem.New(loop, netem.Config{
				Rate:         netem.FlatRate(netem.Mbps(48)),
				MinRTT:       20 * sim.Millisecond,
				Queue:        netem.NewDropTail(40 * netem.MTU),
				ReorderProb:  tc.reorder,
				ReorderDelay: 400 * sim.Millisecond,
				AckDupProb:   0.05,
				Seed:         3,
			})
			fl := NewFlow(loop, n, 1, &fixedCC{w: 300}, Options{})
			fl.Conn.Start(0)
			loop.RunUntil(20 * sim.Second)
			c := fl.Conn
			if c.SentPkts() != tc.sent || c.LostPkts() != tc.lost || c.SpuriousRetrans() != tc.spurious || c.DeliveredPkts() != tc.delivered {
				t.Fatalf("sent/lost/spurious/delivered = %d/%d/%d/%d, want %d/%d/%d/%d",
					c.SentPkts(), c.LostPkts(), c.SpuriousRetrans(), c.DeliveredPkts(),
					tc.sent, tc.lost, tc.spurious, tc.delivered)
			}
		})
	}
}
