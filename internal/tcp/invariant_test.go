package tcp

import (
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// ackTap sits on the ACK path in front of a Conn and records every seq the
// ACKs carry, duplicates included, so the test counts distinct acknowledged
// seqs without relying on the sender's own bookkeeping.
type ackTap struct {
	c    *Conn
	seen map[int64]bool
}

func (a *ackTap) Receive(p *netem.Packet, now sim.Time) {
	if ai, ok := p.Payload.(*ackInfo); ok {
		for _, it := range ai.Items {
			a.seen[it.Seq] = true
		}
	}
	a.c.Receive(p, now)
}

// renoCC is a minimal AIMD scheme, so the sender also runs through slow
// start, recovery and RTO backoff with a moving window.
type renoCC struct{}

func (renoCC) Name() string { return "reno" }
func (renoCC) Init(c *Conn) {}
func (renoCC) OnAck(c *Conn, e AckEvent) {
	if c.Cwnd < c.Ssthresh {
		c.SetCwnd(c.Cwnd + float64(e.AckedPkts))
	} else {
		c.SetCwnd(c.Cwnd + float64(e.AckedPkts)/c.Cwnd)
	}
}
func (renoCC) OnLoss(c *Conn, n int, t sim.Time) {
	c.Ssthresh = max(c.Cwnd/2, 2)
	c.SetCwnd(c.Ssthresh)
}
func (renoCC) OnRTO(c *Conn, t sim.Time) {
	c.Ssthresh = max(c.Cwnd/2, 2)
	c.SetCwnd(1)
}

// TestConnInvariantsAdversarialGrid steps a sender through every
// adversarial condition (link flaps, blackout, reordering, ACK loss and
// duplication, burst loss, all combined) and checks its accounting after
// every 5 ms of simulated time:
//   - InflightPkts equals the number of unresolved records;
//   - Delivered never decreases;
//   - every acknowledged seq is credited exactly once;
//   - sent = delivered + lost − spurious + in flight.
func TestConnInvariantsAdversarialGrid(t *testing.T) {
	grid := netem.AdversarialGrid(netem.AdversarialOptions{Level: netem.GridTiny, Duration: 5 * sim.Second, Seed: 1})
	for _, sc := range grid {
		bdp := float64(netem.BDPBytes(sc.Rate.MaxRate(), sc.MinRTT)) / netem.MTU
		for _, tc := range []struct {
			cc  CongestionControl
			opt Options
		}{
			{renoCC{}, Options{DelAck: true}},
			{&fixedCC{w: 4*bdp + float64(sc.QueueBytes/netem.MTU)}, Options{}},
		} {
			t.Run(sc.Name+"/"+tc.cc.Name(), func(t *testing.T) {
				loop := sim.NewLoop()
				n := sc.Build(loop)
				c := NewConn(loop, n, 1, tc.cc, tc.opt)
				sink := NewSink(n)
				if tc.opt.DelAck {
					sink = NewDelAckSink(loop, n)
				}
				tap := &ackTap{c: c, seen: map[int64]bool{}}
				n.Attach(1, netem.Endpoints{Data: sink, Ack: tap})
				c.Start(0)
				var lastDelivered int64
				for now := sim.Time(0); now < sc.Duration; {
					now += 5 * sim.Millisecond
					loop.RunUntil(now)
					if got := c.unresolvedRecords(); got != c.InflightPkts() {
						t.Fatalf("t=%v: %d unresolved records, InflightPkts %d", now, got, c.InflightPkts())
					}
					if c.Delivered() < lastDelivered {
						t.Fatalf("t=%v: Delivered fell from %d to %d", now, lastDelivered, c.Delivered())
					}
					lastDelivered = c.Delivered()
					if d, acked := c.DeliveredPkts(), int64(len(tap.seen)); d != acked || c.ackedRecords() != acked {
						t.Fatalf("t=%v: DeliveredPkts %d, credited records %d, distinct acked seqs %d", now, d, c.ackedRecords(), acked)
					}
					if c.SentPkts() != c.DeliveredPkts()+c.LostPkts()-c.SpuriousRetrans()+int64(c.InflightPkts()) {
						t.Fatalf("t=%v: conservation: sent=%d delivered=%d lost=%d spurious=%d inflight=%d", now,
							c.SentPkts(), c.DeliveredPkts(), c.LostPkts(), c.SpuriousRetrans(), c.InflightPkts())
					}
				}
				if c.DeliveredPkts() == 0 {
					t.Fatal("nothing delivered")
				}
			})
		}
	}
}
