package tcp

import "math/bits"

// unresolvedRecords counts the sent records neither acknowledged nor
// declared lost; it must always equal InflightPkts.
func (c *Conn) unresolvedRecords() int {
	n := 0
	for i := range c.recs {
		if !c.recs[i].resolved() {
			n++
		}
	}
	return n
}

// ackedRecords counts the distinct seqs the sender has credited as
// delivered: acked records still in the ring, plus every compacted seq
// whose lost bit is clear (compaction keeps only resolved records, so a
// clear bit means acknowledged).
func (c *Conn) ackedRecords() int64 {
	n := c.base
	for _, w := range c.lostBits {
		n -= int64(bits.OnesCount64(w))
	}
	for i := range c.recs {
		if c.recs[i].acked {
			n++
		}
	}
	return n
}
