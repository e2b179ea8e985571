package gossip

import (
	"math/rand"
	"testing"

	"flowercdn/internal/simnet"
)

// BenchmarkGossipRound drives the per-round view operations of Algorithm 4
// — age, select a subset, merge the partner's subset — on two steady-state
// views. After warm-up the only allocation left is the subset slice that
// escapes into the outgoing message; Merge works in the view's own array
// and the Fisher–Yates index buffer is reused.
func BenchmarkGossipRound(b *testing.B) {
	const viewSize, gossipLen = 24, 10
	a := NewView(1, viewSize)
	c := NewView(2, viewSize)
	for i := 0; i < viewSize; i++ {
		a.Insert(Entry{Node: simnet.NodeID(10 + i), Age: i % 7})
		c.Insert(Entry{Node: simnet.NodeID(40 + i), Age: i % 5})
	}
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IncrementAges()
		sub := a.SelectSubset(rng, gossipLen)
		c.Merge(sub)
		back := c.SelectSubset(rng, gossipLen)
		a.Merge(back)
	}
}

// Merge on its own must allocate nothing once the view's array has room
// for a batch.
func TestMergeAllocFree(t *testing.T) {
	v := NewView(0, 24)
	for i := 1; i <= 24; i++ {
		v.Insert(Entry{Node: simnet.NodeID(i), Age: i % 9})
	}
	in := make([]Entry, 8)
	for i := range in {
		in[i] = Entry{Node: simnet.NodeID(20 + i), Age: i % 3}
	}
	v.Merge(in) // grow the entries array to capacity + batch once
	v.Merge(in)
	if avg := testing.AllocsPerRun(100, func() { v.Merge(in) }); avg != 0 {
		t.Fatalf("Merge allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestViewFootprint pins the view's memory bound: the entries array grows
// only when a batch does not fit, to exactly the length it needs, so its
// capacity never exceeds V_gossip plus the largest batch merged, and a
// steady stream of gossip merges allocates nothing.
func TestViewFootprint(t *testing.T) {
	const capacity, maxBatch = 24, 11
	v := NewView(0, capacity)
	first := make([]Entry, 8)
	for i := range first {
		first[i] = Entry{Node: simnet.NodeID(100 + i)}
	}
	v.Merge(first)
	if c := cap(v.entries); c != len(first) {
		t.Fatalf("first merge grew the array to cap %d, want exactly %d", c, len(first))
	}
	rng := rand.New(rand.NewSource(3))
	batches := make([][]Entry, 64)
	for i := range batches {
		b := make([]Entry, 1+rng.Intn(maxBatch))
		for j := range b {
			b[j] = Entry{Node: simnet.NodeID(1 + rng.Intn(200)), Age: rng.Intn(9)}
		}
		batches[i] = b
	}
	for _, b := range batches { // warm-up: the view fills to capacity
		v.IncrementAges()
		v.Merge(b)
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		v.IncrementAges()
		v.MergeWith(batches[i%len(batches)][:len(batches[i%len(batches)])-1], Entry{Node: 7})
		i++
	}); avg != 0 {
		t.Fatalf("steady-state merge allocates %.2f/op, want 0", avg)
	}
	if c := cap(v.entries); c > capacity+maxBatch {
		t.Fatalf("entries cap %d exceeds capacity %d + largest batch %d", c, capacity, maxBatch)
	}
}
