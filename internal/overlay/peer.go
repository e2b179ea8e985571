// Package overlay implements the content-overlay side of the paper's
// contribution (§4): the state machine of a content peer c(ws,loc) — its
// stored content, the Bloom content summary, the bounded gossip view with
// the special directory entry, the active/passive gossip behaviours of
// Algorithm 4 and the push behaviour of Algorithm 5.
//
// Like internal/dring, this package contains no networking: it builds and
// consumes protocol messages as values, and the core system moves them
// across the simulated network. That separation keeps every protocol rule
// unit-testable without a simulator.
//
// Content identity is interned (model.ObjectRef): a peer serves one
// website, whose ObjectsPerSite objects map to a dense local index, so
// stored content is a bitset, un-pushed deltas are a dense []int8 and
// summary rebuilds probe precomputed hashes instead of hashing URL
// strings.
package overlay

import (
	"math/rand"

	"flowercdn/internal/bitset"
	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Config holds the gossip parameters of Table 1.
type Config struct {
	ViewSize        int     // V_gossip: max contacts in the view
	GossipLen       int     // L_gossip: view subset exchanged per round
	PushThreshold   float64 // fraction of changed content triggering a push
	SummaryCapacity int     // nb-ob: sizing of Bloom summaries (8·nb-ob bits)
}

// DefaultConfig returns the paper's chosen operating point (§6.2):
// V_gossip=50, L_gossip=10, push threshold 0.1.
func DefaultConfig() Config {
	return Config{ViewSize: 50, GossipLen: 10, PushThreshold: 0.1, SummaryCapacity: 500}
}

// DirInfo is the special view entry for the directory peer (§4.2.1): only
// address and age, gossiped alongside regular entries so the overlay
// agrees on who the directory is, especially across replacements (§5.2).
type DirInfo struct {
	Addr  simnet.NodeID
	Age   int
	Known bool
}

// WireBytes models the serialized size of the directory entry.
func (d DirInfo) WireBytes() int { return 8 }

// GossipMsg is one gossip exchange message (either direction of Algorithm
// 4): the sender's current content summary, a subset of its view, and its
// directory entry.
type GossipMsg struct {
	From       simnet.NodeID
	Summary    *bloom.Filter
	ViewSubset []gossip.Entry
	Dir        DirInfo
	IsReply    bool
}

// WireBytes models the message size for traffic accounting: a 20-byte
// header, the sender summary, the subset entries and the directory entry.
func (m GossipMsg) WireBytes() int {
	n := 20 + m.Dir.WireBytes()
	if m.Summary != nil {
		n += m.Summary.SizeBytes()
	}
	for _, e := range m.ViewSubset {
		n += e.WireBytes()
	}
	return n
}

// PushMsg is the ∆list push of Algorithm 5, carrying interned refs.
type PushMsg struct {
	From    simnet.NodeID
	Added   []model.ObjectRef
	Removed []model.ObjectRef
}

// WireBytes: 20-byte header + 4 bytes per object identifier. Since PR 3
// object identity travels as an interned model.ObjectRef (uint32); the
// 8-byte charge of the string-keyed era overstated ∆list pushes by
// 4 bytes per identifier.
func (m PushMsg) WireBytes() int { return 20 + 4*(len(m.Added)+len(m.Removed)) }

// ContentPeer is the protocol state of one c(ws,loc).
type ContentPeer struct {
	addr simnet.NodeID
	site model.SiteID
	loc  int
	cfg  Config

	in   *model.Interner
	base model.ObjectRef // first ref of the peer's site

	content      bitset.Set    // stored objects, by local index
	summary      *bloom.Filter // immutable snapshot; rebuilt when dirty
	summaryDirty bool

	// Net un-pushed changes by local index: +1 added, -1 removed, 0 none.
	// Tracking the *net* effect (not an append log) keeps ∆lists
	// replayable in any order; pendingCount counts the nonzero entries.
	pending      []int8
	pendingCount int

	view gossip.View
	dir  DirInfo

	joinedAt simkernel.Time
}

// New creates a content peer that joined at the given time. The interner
// must cover the peer's site; it defines the dense object space all
// content state is indexed by.
func New(addr simnet.NodeID, site model.SiteID, loc int, cfg Config, joinedAt simkernel.Time, in *model.Interner) *ContentPeer {
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = 1
	}
	if cfg.SummaryCapacity <= 0 {
		cfg.SummaryCapacity = 1
	}
	si := in.SiteIndex(site)
	if si < 0 {
		panic("overlay: site not covered by interner")
	}
	return &ContentPeer{
		addr:     addr,
		site:     site,
		loc:      loc,
		cfg:      cfg,
		in:       in,
		base:     in.SiteBase(si),
		content:  bitset.New(in.ObjectsPerSite()),
		pending:  make([]int8, in.ObjectsPerSite()),
		view:     *gossip.NewView(addr, cfg.ViewSize),
		joinedAt: joinedAt,
	}
}

// Addr returns the peer's network address.
func (c *ContentPeer) Addr() simnet.NodeID { return c.addr }

// Site returns the website the peer supports.
func (c *ContentPeer) Site() model.SiteID { return c.site }

// Locality returns the peer's measured locality.
func (c *ContentPeer) Locality() int { return c.loc }

// JoinedAt returns the join time (used for replacement-candidate ranking,
// §5.2: "peer stability").
func (c *ContentPeer) JoinedAt() simkernel.Time { return c.joinedAt }

// View exposes the gossip view (read-mostly; mutations go through the
// protocol methods).
func (c *ContentPeer) View() *gossip.View { return &c.view }

// local maps a ref to the peer's per-site dense index. Refs of other
// sites map outside [0, ObjectsPerSite); like dring.Directory, the
// content API treats them as not-stored no-ops rather than panicking —
// mis-routed messages must degrade the way the string-keyed maps did.
func (c *ContentPeer) local(ref model.ObjectRef) int { return int(ref) - int(c.base) }

func (c *ContentPeer) inRange(ref model.ObjectRef) bool {
	i := c.local(ref)
	return i >= 0 && i < c.content.Cap()
}

// --- Content management (§4.1) ------------------------------------------

// Has reports whether the peer stores ref. Refs of other sites are never
// stored and report false.
func (c *ContentPeer) Has(ref model.ObjectRef) bool {
	return c.content.Has(c.local(ref))
}

// ContentSize returns the number of stored objects.
func (c *ContentPeer) ContentSize() int { return c.content.Count() }

// Objects returns the stored object refs in ascending (canonical key)
// order.
func (c *ContentPeer) Objects() []model.ObjectRef {
	out := make([]model.ObjectRef, 0, c.content.Count())
	c.content.ForEach(func(i int) {
		out = append(out, c.base+model.ObjectRef(i))
	})
	return out
}

// AddObject stores a retrieved object ("peers keep the web-pages they
// retrieve") and records the change for the next push.
func (c *ContentPeer) AddObject(ref model.ObjectRef) {
	if !c.inRange(ref) {
		return // foreign-site ref: this peer cannot store it
	}
	i := c.local(ref)
	if !c.content.Set(i) {
		return // duplicate
	}
	if c.pending[i] == -1 {
		c.pending[i] = 0 // remove+add within one window cancels out
		c.pendingCount--
	} else {
		c.pending[i] = 1
		c.pendingCount++
	}
	c.summaryDirty = true
}

// RemoveObject evicts an object (cache replacement is out of the paper's
// scope but the ∆list protocol supports deletions, §4.2).
func (c *ContentPeer) RemoveObject(ref model.ObjectRef) {
	if !c.inRange(ref) {
		return // foreign-site ref: never stored
	}
	i := c.local(ref)
	if !c.content.Clear(i) {
		return // absent
	}
	if c.pending[i] == 1 {
		c.pending[i] = 0
		c.pendingCount--
	} else {
		c.pending[i] = -1
		c.pendingCount++
	}
	c.summaryDirty = true
}

// Summary returns the current content summary (Bloom over the content
// list). The returned filter is an immutable snapshot: a new instance is
// built after every content change. Rebuilds probe precomputed hashes —
// zero string hashing.
func (c *ContentPeer) Summary() *bloom.Filter {
	if c.summary == nil || c.summaryDirty {
		f := bloom.NewForCapacity(c.cfg.SummaryCapacity)
		c.content.ForEach(func(i int) {
			h1, h2 := c.in.Hashes(c.base + model.ObjectRef(i))
			f.AddHash(h1, h2)
		})
		c.summary = f
		c.summaryDirty = false
	}
	return c.summary
}

// --- Push behaviour (Algorithm 5) ----------------------------------------

// NeedPush reports whether the fraction of un-pushed changes reached the
// push threshold.
func (c *ContentPeer) NeedPush() bool {
	changes := c.pendingCount
	if changes == 0 {
		return false
	}
	base := c.content.Count()
	if base < 1 {
		base = 1
	}
	return float64(changes)/float64(base) >= c.cfg.PushThreshold
}

// TakePush extracts the ∆list and resets the change counter (Algorithm 5's
// extract_changes). Returns ok=false when there is nothing to push. The
// lists come out in ascending canonical order.
func (c *ContentPeer) TakePush() (PushMsg, bool) {
	if c.pendingCount == 0 {
		return PushMsg{}, false
	}
	msg := PushMsg{From: c.addr}
	for i, delta := range c.pending {
		if delta == 0 {
			continue
		}
		if delta > 0 {
			msg.Added = append(msg.Added, c.base+model.ObjectRef(i))
		} else {
			msg.Removed = append(msg.Removed, c.base+model.ObjectRef(i))
		}
		c.pending[i] = 0
	}
	c.pendingCount = 0
	return msg, true
}

// PendingChanges reports the number of un-pushed content changes.
func (c *ContentPeer) PendingChanges() int { return c.pendingCount }

// --- Directory entry management (§4.2.1, §5.2) ---------------------------

// Dir returns the current directory entry.
func (c *ContentPeer) Dir() DirInfo { return c.dir }

// SetDir installs a directory peer at age zero (at join, or when a
// replacement is discovered).
func (c *ContentPeer) SetDir(addr simnet.NodeID) {
	c.dir = DirInfo{Addr: addr, Age: 0, Known: true}
}

// RefreshDir resets the directory age (after a successful push or
// keepalive round trip).
func (c *ContentPeer) RefreshDir() { c.dir.Age = 0 }

// ForgetDir clears the directory entry (observed failure).
func (c *ContentPeer) ForgetDir() { c.dir = DirInfo{} }

// ConsiderDir adopts gossiped directory information when it is fresher
// than ours or when we have none (how replacement directories propagate
// through the overlay, §5.2).
func (c *ContentPeer) ConsiderDir(d DirInfo) {
	if !d.Known {
		return
	}
	if !c.dir.Known || d.Age < c.dir.Age {
		c.dir = d
	}
}

// --- Gossip behaviour (Algorithm 4) --------------------------------------

// TickAges ages the view and the directory entry by one gossip period.
func (c *ContentPeer) TickAges() {
	c.view.IncrementAges()
	if c.dir.Known {
		c.dir.Age++
	}
}

// MakeGossip performs the sending half of the active behaviour: select the
// oldest contact as the gossip target and build the message (own current
// summary + random view subset + directory entry). ok=false when the view
// is empty. The subset is built by appending into subsetBuf (may be nil),
// so a caller that gets its message buffers back — like the core system,
// which pools them alongside gossip envelopes — gossips without
// allocating.
func (c *ContentPeer) MakeGossip(rng *rand.Rand, subsetBuf []gossip.Entry) (target simnet.NodeID, msg GossipMsg, ok bool) {
	oldest, ok := c.view.SelectOldest()
	if !ok {
		return 0, GossipMsg{}, false
	}
	return oldest.Node, GossipMsg{
		From:       c.addr,
		Summary:    c.Summary(),
		ViewSubset: c.view.SelectSubsetAppend(rng, c.cfg.GossipLen, subsetBuf),
		Dir:        c.dir,
	}, true
}

// AcceptGossip performs the passive behaviour: build the answer message
// (its subset appended into subsetBuf, which may be nil — see MakeGossip),
// then merge the received information (view subset + a fresh entry for the
// sender) and consider the gossiped directory entry.
func (c *ContentPeer) AcceptGossip(msg GossipMsg, rng *rand.Rand, subsetBuf []gossip.Entry) GossipMsg {
	reply := GossipMsg{
		From:       c.addr,
		Summary:    c.Summary(),
		ViewSubset: c.view.SelectSubsetAppend(rng, c.cfg.GossipLen, subsetBuf),
		Dir:        c.dir,
		IsReply:    true,
	}
	c.mergeGossip(msg)
	return reply
}

// ApplyGossipReply finishes the active behaviour when the partner's answer
// arrives.
func (c *ContentPeer) ApplyGossipReply(msg GossipMsg) { c.mergeGossip(msg) }

func (c *ContentPeer) mergeGossip(msg GossipMsg) {
	// Merge copies what it keeps into the view, so the message's subset
	// buffer never escapes the exchange.
	c.view.MergeWith(msg.ViewSubset, gossip.Entry{Node: msg.From, Age: 0, Summary: msg.Summary})
	c.ConsiderDir(msg.Dir)
}

// SeedView initialises the view of a freshly joined peer from entries
// provided by the peer that served it (a subset of that peer's view) or by
// the directory peer (a subset of its index, without summaries) — §4.2.
func (c *ContentPeer) SeedView(entries []gossip.Entry) {
	c.view.Merge(entries)
}

// RemoveContact drops a dead or relocated contact (§5.1, §5.4).
func (c *ContentPeer) RemoveContact(node simnet.NodeID) { c.view.Remove(node) }

// DropOldContacts evicts view entries at or beyond the age limit and
// returns them.
func (c *ContentPeer) DropOldContacts(ageLimit int) []simnet.NodeID {
	return c.view.DropOlderThan(ageLimit)
}

// CandidatesFor returns contacts whose summaries test positive for ref, in
// a load-spreading random order (§4.1: replicas of popular objects spread
// the load across holders). The probes use the ref's precomputed hashes.
// The returned slice is freshly allocated, exactly sized (it typically
// outlives the call, travelling with the query); the matches are gathered
// in a stack buffer first. View.MatchingSummariesAppend is the
// allocation-free variant when the result is consumed immediately.
func (c *ContentPeer) CandidatesFor(ref model.ObjectRef, rng *rand.Rand) []simnet.NodeID {
	h1, h2 := c.in.Hashes(ref)
	var buf [128]simnet.NodeID
	cands := c.view.MatchingSummariesAppend(h1, h2, buf[:0])
	if len(cands) == 0 {
		return nil
	}
	out := make([]simnet.NodeID, len(cands))
	copy(out, cands)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ViewSeedFor produces the view subset handed to a newly joined peer that
// this peer just served, including this peer itself as a fresh entry.
func (c *ContentPeer) ViewSeedFor(rng *rand.Rand) []gossip.Entry {
	seed := c.view.SelectSubset(rng, c.cfg.GossipLen)
	seed = append(seed, gossip.Entry{Node: c.addr, Age: 0, Summary: c.Summary()})
	return seed
}
