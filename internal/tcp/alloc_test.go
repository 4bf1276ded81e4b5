package tcp

import (
	"runtime"
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// newOverdrivenFlow starts a fixed window of 2000 packets over 48 Mb/s,
// 40 ms and a 160-packet drop-tail queue: about ten times the path's
// capacity, so most packets are dropped and later declared lost — the
// sender's loss path.
func newOverdrivenFlow() (*sim.Loop, *Flow) {
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{
		Rate:   netem.FlatRate(netem.Mbps(48)),
		MinRTT: 40 * sim.Millisecond,
		Queue:  netem.NewDropTail(160 * netem.MTU),
	})
	fl := NewFlow(loop, n, 1, &fixedCC{w: 2000}, Options{})
	fl.Conn.Start(0)
	return loop, fl
}

// TestLossPathAllocCeiling bounds the sender's allocations per sent packet
// on the loss path, and the length of its record ring over a long run:
// records of lost packets must be compacted away, not kept until an ACK
// that never comes.
func TestLossPathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	loop, fl := newOverdrivenFlow()
	end := 2 * sim.Second
	loop.RunUntil(end)
	var sent int64
	allocs := testing.AllocsPerRun(1, func() {
		before := fl.Conn.SentPkts()
		end += 5 * sim.Second
		loop.RunUntil(end)
		sent = fl.Conn.SentPkts() - before
	})
	// 3.5 sits between the ring's 3.1 (the packet, its events and its ACK)
	// and the 4.1 of a sender that heap-allocates a record per packet and
	// indexes it in a map.
	if perPkt := allocs / float64(sent); perPkt > 3.5 {
		t.Errorf("%.2f allocs per sent packet (%g over %d packets), want <= 3.5", perPkt, allocs, sent)
	}

	maxLen := 0
	for end < 60*sim.Second {
		end += 100 * sim.Millisecond
		loop.RunUntil(end)
		maxLen = max(maxLen, len(fl.Conn.recs))
	}
	if maxLen > 16384 {
		t.Errorf("record ring reached %d records after %d sent, want <= 16384", maxLen, fl.Conn.SentPkts())
	}
}

// BenchmarkConnLossPath measures the sender, network and event loop per
// sent packet on the loss path: 5 simulated seconds of an overdriven flow
// per iteration.
func BenchmarkConnLossPath(b *testing.B) {
	b.ReportAllocs()
	var pkts int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop, fl := newOverdrivenFlow()
		loop.RunUntil(5 * sim.Second)
		pkts += fl.Conn.SentPkts()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(pkts), "allocs/pkt")
}
