// Package dpcls implements the datapath classifier: the megaflow cache that
// backs the EMC in the OVS userspace datapath.
//
// Megaflows are wildcarded flow entries produced by slow-path translation.
// The classifier is a tuple-space search: one hash subtable per distinct
// mask, probed in descending hit-count order (as OVS sorts subtables by
// usage). Megaflows installed by ofproto translation are disjoint by
// construction, so the first match wins and no priorities are needed.
//
// A subtable is an open-addressed table of *Entry pointers, in the style of
// OVS's cmap: each entry caches the hash of its masked key, a slot costs one
// pointer, lookups probe linearly from the hash's home slot, deletions
// shift the run behind them back (no tombstones), and the table halves when
// it falls below 1/8 full. A Go map keyed by the 96-byte masked key would
// cost about twice the memory per megaflow and would keep its peak size
// for as long as one entry lives.
//
// The paper's Section 2.2.2 explains why this structure could not move into
// eBPF ("the sandbox restrictions ... preclude implementing the OVS megaflow
// cache"), which is one of the reasons the AF_XDP userspace architecture
// won.
package dpcls

import (
	"fmt"
	"sort"

	"ovsxdp/internal/flow"
)

// Entry is one installed megaflow.
type Entry struct {
	// Mask selects the fields this megaflow constrains.
	Mask flow.Mask
	// MaskedKey is the key already masked (key.Apply(Mask)).
	MaskedKey flow.Key
	// Actions is the opaque action list the datapath executes; the
	// classifier does not interpret it. Installed actions are immutable:
	// a list may be shared by many entries (ofproto compiles each rule's
	// actions once), so it is replaced, never edited in place.
	Actions any

	// Hits counts packets matched, for revalidator heuristics. With
	// hardware offload enabled, the periodic counter readback merges
	// hardware matches in here too, so offloaded flows keep looking alive
	// to the revalidator and the cache aliveness checks.
	Hits uint64

	// hash is the subtable hash of MaskedKey, cached so that probing
	// compares it before the key, and resizing and removal never rehash.
	// It sits beside the one-byte fields so that Entry stays in the
	// 224-byte size class.
	hash uint32

	// OffloadMark is the hardware-offload engine's per-flow flag: nonzero
	// while the engine classes this megaflow an elephant whose exact keys
	// should be pushed to the NIC. The classifier itself never reads it;
	// it lives here so the per-packet elephant check is one field load
	// instead of a map probe.
	OffloadMark uint8

	// dead marks an entry no longer installed in any classifier. Caches
	// that hold *Entry pointers (the EMC) consult it lazily on lookup
	// instead of being scanned eagerly on every delete — OVS's
	// emc_entry_alive discipline. Remove and Flush set it; an entry is
	// never resurrected (replacement updates the live entry in place, so
	// a dead pointer stays dead forever).
	dead bool
}

// MarkDead marks the entry as removed from the datapath. Idempotent.
func (e *Entry) MarkDead() { e.dead = true }

// Dead reports whether the entry has been removed from the datapath.
func (e *Entry) Dead() bool { return e.dead }

// String summarizes the entry.
func (e *Entry) String() string {
	return fmt.Sprintf("megaflow{bits=%d hits=%d %s}", e.Mask.Bits(), e.Hits, e.MaskedKey)
}

// subtable holds all megaflows sharing one mask: a power-of-two array of
// entry pointers (nil is an empty slot), filled by linear probing from
// each entry's home slot, hash & (len-1). The array is at most 3/4 full, so
// every probe run ends at an empty slot.
type subtable struct {
	mask  flow.Mask
	slots []*Entry
	n     int
	hits  uint64
}

// minSlots is the smallest slot array; a subtable never shrinks below it.
const minSlots = 8

func newSubtable(mask flow.Mask) *subtable {
	return &subtable{mask: mask, slots: make([]*Entry, minSlots)}
}

// find returns the entry whose masked key is masked (hash h), or nil.
func (st *subtable) find(masked *flow.Key, h uint32) *Entry {
	m := uint32(len(st.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		e := st.slots[i]
		if e == nil {
			return nil
		}
		if e.hash == h && e.MaskedKey == *masked {
			return e
		}
	}
}

// add files a new entry, doubling the array first if it would pass 3/4
// full.
func (st *subtable) add(e *Entry) {
	if (st.n+1)*4 > len(st.slots)*3 {
		st.resize(len(st.slots) * 2)
	}
	st.place(e)
	st.n++
}

// place puts e in the first empty slot of its probe run.
func (st *subtable) place(e *Entry) {
	m := uint32(len(st.slots) - 1)
	i := e.hash & m
	for st.slots[i] != nil {
		i = (i + 1) & m
	}
	st.slots[i] = e
}

// remove unlinks e if it is this subtable's entry, closing the hole by
// shifting back every later entry of the run that may move (Knuth's
// algorithm R), so lookups never need tombstones. Below 1/8 full the
// array halves.
func (st *subtable) remove(e *Entry) bool {
	m := uint32(len(st.slots) - 1)
	i := e.hash & m
	for st.slots[i] != e {
		if st.slots[i] == nil {
			return false
		}
		i = (i + 1) & m
	}
	for j := (i + 1) & m; st.slots[j] != nil; j = (j + 1) & m {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, i.e. its home is no closer to j than i is.
		if (j-st.slots[j].hash)&m >= (j-i)&m {
			st.slots[i] = st.slots[j]
			i = j
		}
	}
	st.slots[i] = nil
	st.n--
	if st.n*8 < len(st.slots) && len(st.slots) > minSlots {
		st.resize(len(st.slots) / 2)
	}
	return true
}

// resize refiles every entry into a fresh array of size slots, using the
// cached hashes.
func (st *subtable) resize(size int) {
	old := st.slots
	st.slots = make([]*Entry, size)
	for _, e := range old {
		if e != nil {
			st.place(e)
		}
	}
}

// Classifier is the tuple-space-search megaflow table. It is used from a
// single PMD thread (each PMD owns one, as in OVS) so it needs no locking.
type Classifier struct {
	// subtables stays a slice because Lookup probes it in descending
	// hit-count order; byMask indexes the same subtables so Insert and
	// Remove resolve a mask in O(1) instead of scanning.
	subtables []*subtable
	byMask    map[flow.Mask]*subtable
	basis     uint32
	count     int

	// Lookups and SubtableProbes feed the cost model: a lookup costs
	// per-subtable-probed.
	Lookups        uint64
	SubtableProbes uint64
	// resort counts down to the next usage-based reordering.
	resort int

	// OnInsert, when set, is called for every freshly allocated entry —
	// not for in-place replacements, whose pointer the caller already
	// holds. It is the flow-installed notification the incremental
	// (wheel-based) revalidator registers expiry timers from.
	OnInsert func(*Entry)
}

// New returns an empty classifier.
func New(hashBasis uint32) *Classifier {
	return &Classifier{
		byMask: make(map[flow.Mask]*subtable),
		basis:  hashBasis,
		resort: resortInterval,
	}
}

// resortInterval is how many lookups happen between subtable reorderings.
const resortInterval = 1024

// Lookup finds the megaflow matching key. It returns the entry and the
// number of subtables probed (for cost accounting), or nil and the full
// probe count on a miss.
func (c *Classifier) Lookup(key flow.Key) (*Entry, int) {
	c.Lookups++
	probes := 0
	for _, st := range c.subtables {
		probes++
		c.SubtableProbes++
		masked, h := flow.ApplyHash(&key, &st.mask, c.basis)
		if e := st.find(&masked, h); e != nil {
			e.Hits++
			st.hits++
			c.maybeResort()
			return e, probes
		}
	}
	c.maybeResort()
	return nil, probes
}

func (c *Classifier) maybeResort() {
	c.resort--
	if c.resort > 0 {
		return
	}
	c.resort = resortInterval
	sort.SliceStable(c.subtables, func(i, j int) bool {
		return c.subtables[i].hits > c.subtables[j].hits
	})
	for _, st := range c.subtables {
		st.hits = 0
	}
}

// Insert installs a megaflow for key under mask with the given actions and
// returns the entry. Inserting a key that matches an existing entry of the
// same mask replaces its actions in place: the existing *Entry (which the
// EMC and SMC may still point to) keeps its identity and hit count, so
// cached hits execute the new actions immediately instead of forwarding
// with the stale ones a freshly allocated entry would leave behind.
func (c *Classifier) Insert(key flow.Key, mask flow.Mask, actions any) *Entry {
	st := c.findSubtable(mask)
	if st == nil {
		st = newSubtable(mask)
		c.subtables = append(c.subtables, st)
		c.byMask[mask] = st
	}
	masked, h := flow.ApplyHash(&key, &mask, c.basis)
	if e := st.find(&masked, h); e != nil {
		e.Actions = actions
		return e
	}
	c.count++
	e := &Entry{Mask: mask, MaskedKey: masked, Actions: actions, hash: h}
	st.add(e)
	if c.OnInsert != nil {
		c.OnInsert(e)
	}
	return e
}

// Remove deletes the megaflow that entry represents. It reports whether an
// entry was removed.
func (c *Classifier) Remove(e *Entry) bool {
	st := c.findSubtable(e.Mask)
	if st == nil {
		return false
	}
	if !st.remove(e) {
		return false
	}
	e.MarkDead()
	c.count--
	if st.n == 0 {
		c.dropSubtable(st)
	}
	return true
}

// Flush removes every megaflow (marking each dead for the pointer caches)
// and resets the lookup statistics and the resort countdown, so a reused
// classifier starts from the same state a fresh one would — AvgProbes and
// the cost model are not skewed by a previous table's history.
func (c *Classifier) Flush() {
	for _, st := range c.subtables {
		for _, e := range st.slots {
			if e != nil {
				e.MarkDead()
			}
		}
	}
	c.subtables = nil
	c.byMask = make(map[flow.Mask]*subtable)
	c.count = 0
	c.Lookups = 0
	c.SubtableProbes = 0
	c.resort = resortInterval
}

// Len returns the number of installed megaflows.
func (c *Classifier) Len() int { return c.count }

// Subtables returns the number of distinct masks installed.
func (c *Classifier) Subtables() int { return len(c.subtables) }

// Entries returns all installed megaflows (flow dumps); order is
// unspecified.
func (c *Classifier) Entries() []*Entry {
	return c.EntriesInto(make([]*Entry, 0, c.count))
}

// EntriesInto appends all installed megaflows into buf (truncated first)
// and returns it — the allocation-free dump for callers that reuse one
// buffer across repeated passes. Order is unspecified.
func (c *Classifier) EntriesInto(buf []*Entry) []*Entry {
	buf = buf[:0]
	for _, st := range c.subtables {
		for _, e := range st.slots {
			if e != nil {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

// AvgProbes returns the mean subtables probed per lookup, the quantity the
// cost model charges DpclsLookupPerSubtable for.
func (c *Classifier) AvgProbes() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.SubtableProbes) / float64(c.Lookups)
}

func (c *Classifier) findSubtable(mask flow.Mask) *subtable {
	return c.byMask[mask]
}

func (c *Classifier) dropSubtable(st *subtable) {
	delete(c.byMask, st.mask)
	for i, s := range c.subtables {
		if s == st {
			c.subtables = append(c.subtables[:i], c.subtables[i+1:]...)
			return
		}
	}
}
