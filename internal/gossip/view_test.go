package gossip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

func entry(node int, age int) Entry {
	return Entry{Node: simnet.NodeID(node), Age: age}
}

func TestInsertAndCapacity(t *testing.T) {
	v := NewView(0, 3)
	for i := 1; i <= 5; i++ {
		v.Insert(entry(i, i)) // older and older
	}
	if v.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", v.Len())
	}
	// The three youngest (ages 1,2,3) survive.
	for _, n := range []int{1, 2, 3} {
		if !v.Contains(simnet.NodeID(n)) {
			t.Fatalf("expected node %d to survive", n)
		}
	}
}

func TestNeverContainsOwner(t *testing.T) {
	v := NewView(7, 4)
	v.Insert(entry(7, 0))
	v.Merge([]Entry{entry(7, 0), entry(1, 1)})
	if v.Contains(7) {
		t.Fatal("view contains its owner")
	}
	if !v.Contains(1) {
		t.Fatal("legitimate entry lost")
	}
}

func TestMergeKeepsFreshest(t *testing.T) {
	v := NewView(0, 4)
	sum := bloom.NewForCapacity(10)
	sum.Add("x")
	v.Insert(Entry{Node: 3, Age: 5, Summary: sum})
	v.Merge([]Entry{entry(3, 2)}) // fresher but no summary
	e, ok := v.Get(3)
	if !ok || e.Age != 2 {
		t.Fatalf("merge did not keep freshest age: %+v", e)
	}
	if e.Summary == nil || !e.Summary.Test("x") {
		t.Fatal("merge lost the known summary")
	}
	// Older duplicate must not overwrite.
	v.Merge([]Entry{entry(3, 9)})
	if e, _ := v.Get(3); e.Age != 2 {
		t.Fatal("older duplicate overwrote fresher entry")
	}
}

func TestMergeAdoptsSummaryFromOlder(t *testing.T) {
	v := NewView(0, 4)
	v.Insert(entry(3, 1)) // no summary
	sum := bloom.NewForCapacity(10)
	sum.Add("y")
	v.Merge([]Entry{{Node: 3, Age: 6, Summary: sum}})
	e, _ := v.Get(3)
	if e.Age != 1 {
		t.Fatalf("age should stay 1, got %d", e.Age)
	}
	if e.Summary == nil || !e.Summary.Test("y") {
		t.Fatal("summary from older duplicate not adopted")
	}
}

func TestIncrementAges(t *testing.T) {
	v := NewView(0, 4)
	v.Insert(entry(1, 0))
	v.Insert(entry(2, 3))
	v.IncrementAges()
	if e, _ := v.Get(1); e.Age != 1 {
		t.Fatal("age not incremented")
	}
	if e, _ := v.Get(2); e.Age != 4 {
		t.Fatal("age not incremented")
	}
}

func TestSelectOldestDeterministic(t *testing.T) {
	v := NewView(0, 8)
	v.Insert(entry(5, 3))
	v.Insert(entry(2, 3))
	v.Insert(entry(9, 1))
	e, ok := v.SelectOldest()
	if !ok || e.Age != 3 || e.Node != 2 {
		t.Fatalf("SelectOldest = %+v, want node 2 age 3", e)
	}
	empty := NewView(0, 4)
	if _, ok := empty.SelectOldest(); ok {
		t.Fatal("empty view returned an entry")
	}
}

func TestSelectSubset(t *testing.T) {
	v := NewView(0, 20)
	for i := 1; i <= 10; i++ {
		v.Insert(entry(i, 0))
	}
	rng := rand.New(rand.NewSource(4))
	sub := v.SelectSubset(rng, 4)
	if len(sub) != 4 {
		t.Fatalf("subset len = %d, want 4", len(sub))
	}
	seen := map[simnet.NodeID]bool{}
	for _, e := range sub {
		if seen[e.Node] {
			t.Fatal("subset has duplicates")
		}
		seen[e.Node] = true
	}
	if got := v.SelectSubset(rng, 50); len(got) != 10 {
		t.Fatalf("oversized request should return all, got %d", len(got))
	}
	if got := v.SelectSubset(rng, 0); got != nil {
		t.Fatal("zero-length subset should be nil")
	}
}

// The partial Fisher–Yates must stay a pure function of the RNG stream:
// identical seeds yield identical draws, and the output order is ascending
// view position.
func TestSelectSubsetDeterministicPerSeed(t *testing.T) {
	build := func() *View {
		v := NewView(0, 20)
		for i := 1; i <= 12; i++ {
			v.Insert(entry(i, i%5))
		}
		return v
	}
	a := build().SelectSubset(rand.New(rand.NewSource(7)), 5)
	b := build().SelectSubset(rand.New(rand.NewSource(7)), 5)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lens = %d, %d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	// Output order follows view order: (Age, Node)-sorted, so ages ascend.
	for i := 1; i < len(a); i++ {
		if a[i].Age < a[i-1].Age {
			t.Fatalf("subset not in view order: %v", a)
		}
	}
}

func TestRemoveAndDropOlderThan(t *testing.T) {
	v := NewView(0, 8)
	v.Insert(entry(1, 0))
	v.Insert(entry(2, 5))
	v.Insert(entry(3, 9))
	v.Remove(2)
	if v.Contains(2) {
		t.Fatal("Remove failed")
	}
	evicted := v.DropOlderThan(9)
	if len(evicted) != 1 || evicted[0] != 3 {
		t.Fatalf("evicted = %v, want [3]", evicted)
	}
	if !v.Contains(1) {
		t.Fatal("young entry evicted")
	}
}

func TestRefresh(t *testing.T) {
	v := NewView(0, 4)
	v.Insert(entry(1, 7))
	sum := bloom.NewForCapacity(5)
	sum.Add("obj")
	v.Refresh(1, sum)
	e, _ := v.Get(1)
	if e.Age != 0 || e.Summary == nil {
		t.Fatalf("refresh failed: %+v", e)
	}
	v.Refresh(9, nil) // absent → inserted
	if !v.Contains(9) {
		t.Fatal("refresh should insert missing entry")
	}
}

func TestMatchingSummaries(t *testing.T) {
	v := NewView(0, 8)
	mk := func(keys ...string) *bloom.Filter {
		f := bloom.NewForCapacity(20)
		for _, k := range keys {
			f.Add(k)
		}
		return f
	}
	v.Insert(Entry{Node: 1, Age: 0, Summary: mk("a", "b")})
	v.Insert(Entry{Node: 2, Age: 1, Summary: mk("b")})
	v.Insert(Entry{Node: 3, Age: 2, Summary: nil})
	h1, h2 := bloom.HashKey("b")
	got := v.MatchingSummariesAppend(h1, h2, nil)
	if len(got) != 2 {
		t.Fatalf("matches = %v, want two", got)
	}
	if got[0] != 1 {
		t.Fatalf("freshest match should come first, got %v", got)
	}
	z1, z2 := bloom.HashKey("zzz")
	if len(v.MatchingSummariesAppend(z1, z2, nil)) != 0 {
		t.Log("false positive (acceptable for a bloom filter)")
	}
	// Appends after what dst already holds, without touching it.
	again := v.MatchingSummariesAppend(h1, h2, []simnet.NodeID{99})
	if len(again) != 3 || again[0] != 99 || again[1] != got[0] || again[2] != got[1] {
		t.Fatalf("append after prefix = %v, want [99 %v...]", again, got)
	}
}

func TestWireBytes(t *testing.T) {
	e := entry(1, 0)
	if e.WireBytes() != 8 {
		t.Fatalf("bare entry = %d bytes, want 8", e.WireBytes())
	}
	e.Summary = bloom.NewForCapacity(500)
	if e.WireBytes() != 8+500 {
		t.Fatalf("with summary = %d, want 508", e.WireBytes())
	}
}

// Properties: after any sequence of merges,
//
//	(1) size ≤ capacity, (2) no duplicates, (3) owner absent,
//	(4) every kept entry has the minimum age seen for that node
//	    among (its own history ∪ received) — checked loosely via (5):
//	merging an age-0 entry for node X always keeps X at age 0.
func TestQuickMergeInvariants(t *testing.T) {
	prop := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		v := NewView(0, capacity)
		for _, op := range ops {
			node := int(op%13) + 1
			age := int(op / 13 % 11)
			v.Merge([]Entry{entry(node, age)})
			if v.Len() > capacity {
				return false
			}
			seen := map[simnet.NodeID]bool{}
			for _, e := range v.Entries() {
				if e.Node == 0 || seen[e.Node] {
					return false
				}
				seen[e.Node] = true
			}
		}
		v.Merge([]Entry{entry(1, 0)})
		e, ok := v.Get(1)
		return ok && e.Age == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: entries are always sorted most-recent-first in Entries().
func TestQuickSortedOutput(t *testing.T) {
	prop := func(ops []uint16) bool {
		v := NewView(0, 10)
		for _, op := range ops {
			v.Insert(entry(int(op%31)+1, int(op/31%7)))
		}
		es := v.Entries()
		for i := 1; i < len(es); i++ {
			if es[i].Age < es[i-1].Age {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every slot a view vacates — by Remove, by DropOlderThan, or by Merge
// truncating to capacity — must be zeroed: the array's spare room would
// otherwise keep the departed entries' summary snapshots reachable.
func TestVacatedSlotsCleared(t *testing.T) {
	sum := bloom.NewForCapacity(5)
	withSum := func(node, age int) Entry { return Entry{Node: simnet.NodeID(node), Age: age, Summary: sum} }
	tailZero := func(t *testing.T, v *View, op string) {
		t.Helper()
		for i, e := range v.entries[len(v.entries):cap(v.entries)] {
			if e != (Entry{}) {
				t.Fatalf("after %s: slot %d past len %d holds %+v", op, len(v.entries)+i, len(v.entries), e)
			}
		}
	}
	v := NewView(0, 6)
	v.Merge([]Entry{withSum(1, 0), withSum(2, 5), withSum(3, 9), withSum(4, 2), withSum(5, 7)})
	v.Remove(2)
	tailZero(t, v, "Remove")
	if evicted := v.DropOlderThan(7); len(evicted) != 2 {
		t.Fatalf("evicted = %v, want 2 entries", evicted)
	}
	tailZero(t, v, "DropOlderThan")
	batch := make([]Entry, 8)
	for i := range batch {
		batch[i] = withSum(10+i, i)
	}
	v.Merge(batch) // 2 live + 8 received > capacity 6
	if v.Len() != 6 {
		t.Fatalf("len = %d, want capacity 6", v.Len())
	}
	tailZero(t, v, "over-capacity Merge")
}

// MergeWith(received, extra) is Merge of received with extra appended.
func TestQuickMergeWithMatchesMerge(t *testing.T) {
	prop := func(seed int64, n, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%12) + 1
		a, b := NewView(0, capacity), NewView(0, capacity)
		for round := 0; round < 6; round++ {
			batch := make([]Entry, int(n%9))
			for i := range batch {
				batch[i] = entry(rng.Intn(20), rng.Intn(6))
			}
			extra := entry(rng.Intn(20), rng.Intn(6))
			a.MergeWith(batch, extra)
			b.Merge(append(batch, extra))
			ea, eb := a.Entries(), b.Entries()
			if len(ea) != len(eb) {
				return false
			}
			for i := range ea {
				if ea[i] != eb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
