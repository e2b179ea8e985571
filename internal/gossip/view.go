// Package gossip implements the membership-view machinery behind the
// content-overlay gossip protocol (Algorithm 4 in the paper), in the style
// of Cyclon and the peer-sampling service (references [21] and [10]): a
// bounded partial view of (peer, age, content-summary) entries, with the
// select-oldest / select-subset / merge / select-recent operations the
// algorithm composes each round.
//
// The package is pure data structure — protocol timing and message
// exchange live in internal/overlay — which keeps these invariants easy to
// property-test: a view never contains its owner, never holds duplicate
// peers, never exceeds its capacity, and merging always keeps the
// freshest instance of every entry.
package gossip

import (
	"math/rand"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

// Entry is one view slot: a contact plus the age of the information and
// the contact's last known content summary (§4.2: address, age, summary).
// Summaries are treated as immutable snapshots; owners publish a fresh
// filter rather than mutating a shared one.
type Entry struct {
	Node    simnet.NodeID
	Age     int
	Summary *bloom.Filter
}

// WireBytes models the serialized entry size for traffic accounting:
// 6 B address + 2 B age + the summary bit-array.
func (e Entry) WireBytes() int {
	n := 6 + 2
	if e.Summary != nil {
		n += e.Summary.SizeBytes()
	}
	return n
}

// View is a bounded set of entries about distinct peers, owned by one peer
// (the owner never appears in its own view).
//
// The view owns one entries array and works on it in place, so a peer's
// gossip state is that array and nothing else: Merge appends a batch into
// the array's spare room, deduplicates, sorts and truncates back to
// capacity. The array grows only when a batch does not fit, and then to
// exactly the length the batch needs, so its capacity never exceeds
// V_gossip plus the largest batch merged. The per-call buffers of the
// other operations live on the caller's stack or in caller-supplied
// slices, never in the view.
type View struct {
	owner    simnet.NodeID
	capacity int
	entries  []Entry // kept sorted by (Age, Node) — "most recent" first
}

// NewView creates an empty view with the given capacity (V_gossip).
func NewView(owner simnet.NodeID, capacity int) *View {
	if capacity <= 0 {
		capacity = 1
	}
	return &View{owner: owner, capacity: capacity}
}

// Owner returns the peer owning this view.
func (v *View) Owner() simnet.NodeID { return v.owner }

// Capacity returns V_gossip.
func (v *View) Capacity() int { return v.capacity }

// Len returns the number of entries.
func (v *View) Len() int { return len(v.entries) }

// Entries returns a copy of the entries (most recent first).
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// Get returns the entry for node, if present.
func (v *View) Get(node simnet.NodeID) (Entry, bool) {
	for _, e := range v.entries {
		if e.Node == node {
			return e, true
		}
	}
	return Entry{}, false
}

// Contains reports whether node is in the view.
func (v *View) Contains(node simnet.NodeID) bool {
	_, ok := v.Get(node)
	return ok
}

// sortByAgeNode is an insertion sort by (Age, Node). Views are small
// (bounded by V_gossip, tens of entries), where insertion sort beats the
// generic sort and — unlike sort.Slice, whose reflect.Swapper allocates —
// costs nothing on the heap. The key is a total order (nodes are distinct
// after dedup), so the result is deterministic.
func sortByAgeNode(es []Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].Age > e.Age || (es[j].Age == e.Age && es[j].Node > e.Node)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

func (v *View) sortEntries() { sortByAgeNode(v.entries) }

// IncrementAges ages every entry by one gossip period (§4.2: "periodically,
// cws,loc increments by 1 the age of all its view entries").
func (v *View) IncrementAges() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// SelectOldest returns the entry with the highest age (ties broken by the
// lowest node ID for determinism), as gossip target selection requires.
func (v *View) SelectOldest() (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	best := v.entries[0]
	for _, e := range v.entries[1:] {
		if e.Age > best.Age || (e.Age == best.Age && e.Node < best.Node) {
			best = e
		}
	}
	return best, true
}

// SelectSubset returns up to l random distinct entries (the view subset of
// length L_gossip exchanged each round) in a fresh slice. It is
// SelectSubsetAppend without a reuse buffer; callers on the gossip hot
// path (whose subset escapes into an outgoing message they later get
// back) pool their buffers through the append variant instead.
func (v *View) SelectSubset(rng *rand.Rand, l int) []Entry {
	if l <= 0 || len(v.entries) == 0 {
		return nil
	}
	return v.SelectSubsetAppend(rng, l, nil)
}

// stackIdx bounds the views whose SelectSubset index buffer lives on the
// stack. V_gossip is 8–70 in every preset; a larger view pays one
// allocation per selection.
const stackIdx = 128

// SelectSubsetAppend appends up to l random distinct entries to dst and
// returns the extended slice (allocation-free once dst has capacity).
// Selection is a partial Fisher–Yates over a stack index buffer — l
// draws from rng instead of rng.Perm's n fresh ints — and draws exactly
// the same rng sequence as SelectSubset for any given view.
func (v *View) SelectSubsetAppend(rng *rand.Rand, l int, dst []Entry) []Entry {
	if l <= 0 || len(v.entries) == 0 {
		return dst
	}
	n := len(v.entries)
	want := l
	if want > n {
		want = n
	}
	// One right-sized growth when dst is short (e.g. nil from the
	// compatibility wrapper) instead of append's doubling crawl.
	if cap(dst)-len(dst) < want {
		grown := make([]Entry, len(dst), len(dst)+want)
		copy(grown, dst)
		dst = grown
	}
	if l >= n {
		return append(dst, v.entries...)
	}
	var buf [stackIdx]int32
	idx := buf[:]
	if n > len(buf) {
		idx = make([]int32, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < l; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := idx[:l]
	// Deterministic output order: ascending view position (insertion sort;
	// sort.Ints on a converted []int would allocate).
	for i := 1; i < len(sel); i++ {
		x := sel[i]
		j := i - 1
		for j >= 0 && sel[j] > x {
			sel[j+1] = sel[j]
			j--
		}
		sel[j+1] = x
	}
	for _, i := range sel {
		dst = append(dst, v.entries[i])
	}
	return dst
}

// Insert adds or refreshes a single entry, keeping the freshest instance,
// then truncates to capacity (a one-entry Merge).
func (v *View) Insert(e Entry) {
	v.MergeWith(nil, e)
}

// Merge implements merge() + select_recent() from Algorithm 4: combine the
// current entries with the received ones, discard duplicates keeping the
// smallest age (refreshing the summary from the fresher instance), drop the
// owner, and keep the capacity most-recent entries.
//
// The combined set is built in place in the view's own array, and
// duplicates are found by linear scan — views are tens of entries, where
// the scan beats a throwaway map and, unlike the map, allocates nothing in
// steady state.
func (v *View) Merge(received []Entry) {
	v.reserve(len(received))
	for _, e := range received {
		v.absorb(e)
	}
	v.selectRecent()
}

// MergeWith is Merge of received followed by one more entry — in gossip,
// the received view subset plus a fresh entry for its sender — without
// the caller first copying both into one batch.
func (v *View) MergeWith(received []Entry, extra Entry) {
	v.reserve(len(received) + 1)
	for _, e := range received {
		v.absorb(e)
	}
	v.absorb(extra)
	v.selectRecent()
}

// reserve makes room for n more entries, growing the array to exactly the
// length needed when the spare room is short.
func (v *View) reserve(n int) {
	if cap(v.entries)-len(v.entries) >= n {
		return
	}
	grown := make([]Entry, len(v.entries), len(v.entries)+n)
	copy(grown, v.entries)
	v.entries = grown
}

// absorb adds e to the entries, or refreshes the entry already held for
// its node. The entries are deduped and owner-free (invariant), and so is
// every earlier entry of the same batch.
func (v *View) absorb(e Entry) {
	if e.Node == v.owner {
		return
	}
	for i := range v.entries {
		cur := &v.entries[i]
		if cur.Node != e.Node {
			continue
		}
		if e.Age < cur.Age {
			// Never lose a known summary to a fresher entry that lacks one.
			if e.Summary == nil && cur.Summary != nil {
				e.Summary = cur.Summary
			}
			*cur = e
		} else if cur.Summary == nil && e.Summary != nil {
			cur.Summary = e.Summary
		}
		return
	}
	v.entries = append(v.entries, e)
}

// selectRecent sorts the entries and keeps the capacity most recent.
func (v *View) selectRecent() {
	sortByAgeNode(v.entries)
	if len(v.entries) > v.capacity {
		v.truncate(v.capacity)
	}
}

// truncate shortens the entries to n and clears the vacated slots, so the
// spare room never pins the summaries of entries that left the view.
func (v *View) truncate(n int) {
	clear(v.entries[n:])
	v.entries = v.entries[:n]
}

// Remove deletes the entry for node (dead peer, per §5.1/§5.4).
func (v *View) Remove(node simnet.NodeID) {
	out := v.entries[:0]
	for _, e := range v.entries {
		if e.Node != node {
			out = append(out, e)
		}
	}
	v.truncate(len(out))
}

// DropOlderThan evicts entries whose age reached the limit (T_dead); it
// returns the evicted nodes.
func (v *View) DropOlderThan(ageLimit int) []simnet.NodeID {
	var evicted []simnet.NodeID
	out := v.entries[:0]
	for _, e := range v.entries {
		if e.Age >= ageLimit {
			evicted = append(evicted, e.Node)
			continue
		}
		out = append(out, e)
	}
	v.truncate(len(out))
	return evicted
}

// Refresh sets node's age to zero and updates its summary, inserting the
// entry if absent.
func (v *View) Refresh(node simnet.NodeID, summary *bloom.Filter) {
	for i := range v.entries {
		if v.entries[i].Node == node {
			v.entries[i].Age = 0
			if summary != nil {
				v.entries[i].Summary = summary
			}
			v.sortEntries()
			return
		}
	}
	v.Insert(Entry{Node: node, Age: 0, Summary: summary})
}

// MatchingSummariesAppend appends to dst the nodes whose summary tests
// positive for the key with precomputed hash pair (h1, h2) — see
// bloom.HashKey — freshest entries first: the candidate set for a
// content-overlay lookup (§4.1). The probes do zero hashing, and the call
// allocates nothing once dst has room (a caller's stack array will do).
func (v *View) MatchingSummariesAppend(h1, h2 uint64, dst []simnet.NodeID) []simnet.NodeID {
	for _, e := range v.entries {
		if e.Summary != nil && e.Summary.TestHash(h1, h2) {
			dst = append(dst, e.Node)
		}
	}
	return dst
}
