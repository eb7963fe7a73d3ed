// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy: private L1s and L2s, and the distributed
// LLC banks. It supports true-LRU replacement, way-partitioned insertion
// (the intra-bank half of DELTA's enforcement mechanism), an in-cache
// directory (owner + sharer bits, as in the paper's MESIF configuration),
// inclusive back-invalidation hooks and the bulk range-invalidation walk that
// DELTA's remapping relies on.
//
// The array is stored structure-of-arrays: parallel tag/recency slices (and,
// in LLC banks only, sharer/owner slices) indexed by set and way, with
// per-set valid and dirty bitmasks and a packed recency order. A set's tags
// occupy one contiguous 64-byte span (8 ways × 8 bytes), so a lookup miss
// touches a single cache line of tag storage (the set's state group is read
// only on a tag match), instead of striding across Ways pointer-heavy
// structs. Positions are
// exposed to callers as flat indices ("flat index" below = the tag word's
// position, set*stride+way); Line remains the value type handed to eviction
// hooks and predicates.
//
// Replacement is exact LRU. Every set keeps its ways in recency order in one
// uint64, one 4-bit way id per position with the most recently used way in
// the low nibble, so a hit promotes its way with a branch-free nibble search
// and an unrestricted victim is read straight off the high end. This caps
// associativity at 16 ways (the simulated hierarchy uses 8 and 16). Each
// line also carries a recency stamp from a per-cache clock; the stamps are
// what snapshots store, and the order is rebuilt from them on restore.
//
// Throughout the simulator addresses are *line addresses*: the byte address
// shifted right by 6 (64-byte lines, Table II).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size in bytes across the whole hierarchy.
const LineBytes = 64

// NoOwner marks a line not attributed to any partition (used by caches that
// are private and do not track partitions).
const NoOwner = -1

// maxWays is the associativity cap: a set's recency order packs one 4-bit
// way id per way into one uint64.
const maxWays = 16

// nibbles has a 1 in every nibble; it broadcasts a way id across an order
// word for the nibble search.
const nibbles = 0x1111111111111111

// Line is one cache line's metadata, assembled on demand from the parallel
// arrays. Owner and Sharers are only stored by owner-tracking caches (LLC
// banks with an in-cache directory); a private cache reports every valid
// line as NoOwner with no sharers.
//
// Owner is the partition that *inserted* the line and is attribution-stable
// for the line's lifetime: a hit from another partition never reattributes
// it. This is a deliberate semantics choice, not an accident of the lookup
// path — the bulk-invalidation unit of a remap (chip.InvalidateOwnerBuckets)
// is keyed on Owner and must find exactly the lines the owner's CBT placed
// in the bank. Reattributing on cross-partition hits would orphan lines at
// remap time (the owner's invalidation would miss them, leaving stale copies
// behind while the bucket refills elsewhere). Occupancy accounting therefore
// answers "whose placement filled this capacity", which is also what the
// way-partition enforcement admitted the line under.
type Line struct {
	Addr    uint64 // line address; meaningful only when Valid
	Valid   bool
	Dirty   bool
	Owner   int16  // partition (core) that inserted the line, or NoOwner
	Sharers uint64 // bitmask of cores with a private copy (directory)
	used    uint64 // recency stamp for LRU
}

// Stats counts cache events. Counters are cumulative; callers snapshot and
// diff per interval where needed.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invals      uint64 // lines removed by explicit invalidation
	BulkWalks   uint64 // bulk-invalidation tag walks performed
}

// MissRate returns misses/accesses, or 0 when idle.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// EvictFn observes a line leaving the cache (capacity eviction or
// invalidation). Inclusive hierarchies use it to back-invalidate upper
// levels; the LLC uses it to notify the directory.
//
// Re-entrancy contract: the hook fires while the firing cache may be
// mid-walk (InvalidateMatching visits lines in array order and invokes the
// hook with the array in a partially-invalidated state). The callback may
// read the firing cache and may freely mutate *other* caches — directory
// cleanup back-invalidating private L1/L2 copies is the intended use — but
// it must not insert into or invalidate lines of the cache it fired from;
// such re-entrant mutation would corrupt the walk and the occupancy
// accounting, and panics.
type EvictFn func(line Line)

// setState is one set's per-set state, kept together so an access touches
// one 32-byte group: bit w of valid/dirty is way w, and order lists the
// ways from most to least recently used, nibble p holding the way at
// recency position p. Nibbles at positions >= Ways stay zero. Invalid ways
// keep whatever position they had; only the relative order of valid ways
// carries meaning.
type setState struct {
	valid, dirty, order uint64
	_                   uint64 // pad to 32 bytes so a group never straddles a host cache line
}

// Cache is a single set-associative array in structure-of-arrays layout.
// Not safe for concurrent use; the chip model serializes accesses within a
// quantum. Ways is capped at 16 so a set's recency order fits one uint64.
type Cache struct {
	Sets, Ways int

	// words holds the per-set parallel slices, tiled so one set's state is
	// one contiguous block: [tags | used stamps] (2×Ways words) in private
	// caches, [tags | used stamps | sharers | owners] (4×Ways words) in
	// owner-tracking caches, the only ones with a directory. A lookup scans
	// the tag span and its stamp write lands a few cache lines later in the
	// same block. Flat line indices returned by Lookup/Insert are positions
	// of the *tag word* (set*stride + way); the matching stamp, sharer and
	// owner words sit at fixed offsets +Ways, +2*Ways and +3*Ways. Owners
	// are int16 values stored zero-extended from their uint16 bit pattern
	// (so NoOwner = -1 round-trips) to keep the block homogeneous.
	words  []uint64
	stride int // words per set block: 2*Ways, or 4*Ways when tracking owners
	sets   []setState

	setMask   uint64
	allMask   uint64 // mask of all ways, hoisted out of the access path
	orderMask uint64 // nibbles of the Ways order positions
	lruShift  uint   // bit offset of the LRU position in an order word
	clk       uint64

	// occupancy[owner] counts valid lines per partition; only maintained when
	// trackOwners is set (LLC banks).
	occupancy   []uint64
	trackOwners bool

	// walking is set while OnEvict callbacks may observe the array in a
	// partially mutated state; mutators panic when re-entered under it.
	walking bool

	OnEvict EvictFn

	Stats Stats
}

// Config describes a cache geometry in conventional units.
type Config struct {
	SizeBytes int
	Ways      int
	// TrackOwners enables per-partition occupancy accounting and directory
	// bits; enable for LLC banks only.
	TrackOwners bool
	// Partitions sizes the occupancy table (number of cores) when
	// TrackOwners is set.
	Partitions int
}

// New builds a cache. Geometry must be a power-of-two number of sets and at
// most 16 ways (one uint64 of packed recency order per set).
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: invalid config %+v (ways must be 1..%d)", cfg, maxWays))
	}
	lines := cfg.SizeBytes / LineBytes
	sets := lines / cfg.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two (size %d, ways %d)",
			sets, cfg.SizeBytes, cfg.Ways))
	}
	stride := 2 * cfg.Ways
	if cfg.TrackOwners {
		stride = 4 * cfg.Ways
	}
	c := &Cache{
		Sets:     sets,
		Ways:     cfg.Ways,
		words:    make([]uint64, sets*stride),
		stride:   stride,
		sets:     make([]setState, sets),
		setMask:  uint64(sets - 1),
		allMask:  uint64(1)<<cfg.Ways - 1,
		lruShift: uint(4 * (cfg.Ways - 1)),
	}
	c.orderMask = uint64(1)<<(4*cfg.Ways) - 1 // 1<<64 is 0, so 16 ways gives all ones
	// Start every set in way order; all ways are invalid, so any
	// permutation would do.
	var identity uint64
	for w := cfg.Ways - 1; w >= 0; w-- {
		identity = identity<<4 | uint64(w)
	}
	for i := range c.sets {
		c.sets[i].order = identity
	}
	if cfg.TrackOwners {
		if cfg.Partitions <= 0 {
			panic("cache: TrackOwners requires Partitions > 0")
		}
		c.trackOwners = true
		c.occupancy = make([]uint64, cfg.Partitions)
	}
	return c
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.Sets * c.Ways * LineBytes }

// findLine locates a valid line with the given address in a set, returning
// its way or -1: a linear scan over the set's contiguous tag span, filtered
// by the valid mask. The span is one or two cache lines for realistic
// associativities and rides a single sequential stream.
func (c *Cache) findLine(setIdx int, lineAddr uint64) int {
	base := setIdx * c.stride
	tags := c.words[base : base+c.Ways : base+c.Ways]
	for w := range tags {
		if tags[w] == lineAddr && c.sets[setIdx].valid&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// promote moves way w to the most recently used position of a packed
// order. w's position is found by broadcasting w to every nibble, XORing,
// and locating the lowest zero nibble; the subtract-and-mask test can flag
// spurious zeros only above a real one, and w occurs exactly once.
func promote(order uint64, w int) uint64 {
	x := order ^ uint64(w)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	return promoteAt(order, w, uint(bits.TrailingZeros64(z))-3)
}

// promoteAt moves way w, found at bit offset shift (4×its position), to the
// most recently used position; the ways in front of it age by one position.
func promoteAt(order uint64, w int, shift uint) uint64 {
	younger := order & (uint64(1)<<shift - 1)
	older := order &^ (uint64(1)<<(shift+4) - 1) // shift+4 == 64 clears all
	return older | younger<<4 | uint64(w)
}

// SetIndex returns the set an address maps to under the natural (low-bits)
// indexing used by private caches.
func (c *Cache) SetIndex(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// SetIndexShifted indexes with the address pre-shifted by k bits: the layout
// of a line-interleaved NUCA, where the bank-selection bits sit below the
// set index. Lines placed with a shifted index must be looked up, probed and
// invalidated with the same shift.
func (c *Cache) SetIndexShifted(lineAddr uint64, k int) int {
	return int((lineAddr >> uint(k)) & c.setMask)
}

// SetOf returns the set holding a flat line index.
func (c *Cache) SetOf(idx int) int { return idx / c.stride }

// WayOf returns the way within its set of a flat line index.
func (c *Cache) WayOf(idx int) int { return idx % c.stride }

// LineAt assembles the line value at a flat index (as returned by
// Lookup/Insert or passed to ForEachLine callbacks).
func (c *Cache) LineAt(idx int) Line {
	return c.lineAt(idx/c.stride, idx%c.stride)
}

// lineAt is LineAt with the set/way split already done — the hot paths know
// both and must not pay the division.
func (c *Cache) lineAt(set, way int) Line {
	base := set * c.stride
	st := &c.sets[set]
	bit := uint64(1) << uint(way)
	ln := Line{
		Addr:  c.words[base+way],
		Valid: st.valid&bit != 0,
		Dirty: st.dirty&bit != 0,
		used:  c.words[base+c.Ways+way],
	}
	if c.trackOwners {
		ln.Owner = int16(uint16(c.words[base+3*c.Ways+way]))
		ln.Sharers = c.words[base+2*c.Ways+way]
	} else if ln.Valid {
		ln.Owner = NoOwner
	}
	return ln
}

// PutLineRaw overwrites the slot at a flat index with the given metadata,
// bypassing statistics and occupancy bookkeeping, and re-derives the set's
// recency order from the stamps. Private caches store no owner or sharer
// words, so they ignore those fields. It exists for tests that deliberately
// corrupt state to prove the invariant sweep fires; the access path never
// uses it.
func (c *Cache) PutLineRaw(idx int, ln Line) {
	set, way := idx/c.stride, idx%c.stride
	base := set * c.stride
	c.words[base+way] = ln.Addr
	c.words[base+c.Ways+way] = ln.used
	if c.trackOwners {
		c.words[base+2*c.Ways+way] = ln.Sharers
		c.words[base+3*c.Ways+way] = uint64(uint16(ln.Owner))
	}
	st := &c.sets[set]
	bit := uint64(1) << uint(way)
	st.valid &^= bit
	st.dirty &^= bit
	if ln.Valid {
		st.valid |= bit
	}
	if ln.Dirty {
		st.dirty |= bit
	}
	c.rebuildOrder(set)
}

// rebuildOrder derives a set's recency order from its stamps: valid ways by
// descending stamp, ties broken toward the higher way, so the LRU walk
// picks the lowest of tied ways, as a lowest-stamp scan in way order would.
// Invalid ways rank as stamp 0; their positions are never consulted. It
// allocates nothing.
func (c *Cache) rebuildOrder(set int) {
	base := set*c.stride + c.Ways
	stamps := c.words[base : base+c.Ways : base+c.Ways]
	valid := c.sets[set].valid
	// Insertion sort, newest first. Ways arrive in ascending order, so a
	// way passes every earlier way with an equal key.
	var keys [maxWays]uint64
	var ways [maxWays]uint8
	for w, stamp := range stamps {
		if valid&(1<<uint(w)) == 0 {
			stamp = 0
		}
		p := w
		for ; p > 0 && keys[p-1] <= stamp; p-- {
			keys[p], ways[p] = keys[p-1], ways[p-1]
		}
		keys[p], ways[p] = stamp, uint8(w)
	}
	var order uint64
	for p := c.Ways - 1; p >= 0; p-- {
		order = order<<4 | uint64(ways[p])
	}
	c.sets[set].order = order
}

// OrderAt returns the packed recency order of a set (nibble p = the way at
// recency position p, most recent first).
func (c *Cache) OrderAt(set int) uint64 { return c.sets[set].order }

// PutOrderRaw overwrites a set's packed recency order. Like PutLineRaw it
// exists only for tests that corrupt state to prove the invariant sweep
// catches it.
func (c *Cache) PutOrderRaw(set int, order uint64) { c.sets[set].order = order }

// CheckOrder verifies every set's recency order: its first Ways nibbles are
// a permutation of the set's ways, the unused nibbles are zero, and the
// valid ways appear in strictly descending stamp order — the order LRU
// victim choice relies on. It returns the first violation found.
func (c *Cache) CheckOrder() error {
	for set := range c.sets {
		st := &c.sets[set]
		if st.order&^c.orderMask != 0 {
			return fmt.Errorf("set %d recency order %#x has nibbles beyond %d ways", set, st.order, c.Ways)
		}
		base := set*c.stride + c.Ways
		var seen uint64
		prev, prevWay := ^uint64(0), -1
		for p := 0; p < c.Ways; p++ {
			w := int(st.order >> uint(4*p) & 0xF)
			if w >= c.Ways || seen>>uint(w)&1 != 0 {
				return fmt.Errorf("set %d recency order %#x is not a permutation of %d ways", set, st.order, c.Ways)
			}
			seen |= 1 << uint(w)
			if st.valid>>uint(w)&1 == 0 {
				continue
			}
			stamp := c.words[base+w]
			if stamp >= prev {
				return fmt.Errorf("set %d recency order %#x ranks way %d (stamp %d) ahead of way %d (stamp %d)",
					set, st.order, prevWay, prev, w, stamp)
			}
			prev, prevWay = stamp, w
		}
	}
	return nil
}

// Lookup searches for the line and, on a hit, refreshes its recency, marks
// it dirty when write is set, and returns its flat index. Counters are
// updated. On a miss the index is -1.
func (c *Cache) Lookup(lineAddr uint64, write bool) (int, bool) {
	return c.LookupIdx(c.SetIndex(lineAddr), lineAddr, write)
}

// LookupIdx is Lookup with an explicit set index (NUCA-interleaved layouts).
func (c *Cache) LookupIdx(setIdx int, lineAddr uint64, write bool) (int, bool) {
	c.Stats.Accesses++
	base := setIdx * c.stride
	tags := c.words[base : base+c.Ways : base+c.Ways]
	for w := range tags {
		// The valid mask is read only on a tag match, so a miss touches
		// nothing but the tag span.
		if st := &c.sets[setIdx]; tags[w] == lineAddr && st.valid&(1<<uint(w)) != 0 {
			idx := base + w
			c.clk++
			c.words[idx+c.Ways] = c.clk
			st.order = promote(st.order, w)
			if write {
				st.dirty |= 1 << uint(w)
			}
			c.Stats.Hits++
			return idx, true
		}
	}
	c.Stats.Misses++
	return -1, false
}

// Probe reports whether the line is present without touching LRU state or
// counters. UMON-style monitors and the test suite use it.
func (c *Cache) Probe(lineAddr uint64) bool {
	return c.ProbeIdx(c.SetIndex(lineAddr), lineAddr)
}

// ProbeIdx is Probe with an explicit set index.
func (c *Cache) ProbeIdx(setIdx int, lineAddr uint64) bool {
	return c.findLine(setIdx, lineAddr) >= 0
}

// Get returns the line's metadata without LRU update; ok is false when the
// line is absent.
func (c *Cache) Get(lineAddr uint64) (Line, bool) {
	return c.GetIdx(c.SetIndex(lineAddr), lineAddr)
}

// GetIdx is Get with an explicit set index.
func (c *Cache) GetIdx(setIdx int, lineAddr uint64) (Line, bool) {
	if w := c.findLine(setIdx, lineAddr); w >= 0 {
		return c.lineAt(setIdx, w), true
	}
	return Line{}, false
}

// FindIdx returns the flat line index of lineAddr within the given set
// without touching LRU state or statistics; ok is false when absent. The
// fast-forward prefill uses it to re-locate LLC residents for directory
// updates without perturbing replacement order.
func (c *Cache) FindIdx(setIdx int, lineAddr uint64) (int, bool) {
	if w := c.findLine(setIdx, lineAddr); w >= 0 {
		return setIdx*c.stride + w, true
	}
	return -1, false
}

// AllMask allows insertion into every way. It is a precomputed field read so
// the per-access fast paths (fillPrivate, insertMask) pay no recomputation.
func (c *Cache) AllMask() uint64 { return c.allMask }

// OrSharers sets directory sharer bits on the line at a flat index. The hot
// path uses it right after Lookup/Insert so the set is never walked twice.
// Only owner-tracking caches hold a directory; a private cache panics.
func (c *Cache) OrSharers(idx int, bit uint64) {
	if !c.trackOwners {
		panic("cache: OrSharers on a cache without a directory (TrackOwners off)")
	}
	c.words[idx+2*c.Ways] |= bit
}

// Insert places a line, choosing a victim only among ways enabled in mask
// (way-partitioned insertion), and returns the flat index of the inserted
// line (callers that need to stamp directory bits use it instead of
// re-walking the set). A displaced valid line is reported to OnEvict. The
// line is inserted owned by owner — recorded only by owner-tracking caches —
// and clean unless write. Insert panics if mask selects no way; the
// enforcement layer guarantees a partition never inserts without owning
// capacity.
func (c *Cache) Insert(lineAddr uint64, owner int, write bool, mask uint64) int {
	return c.InsertIdx(c.SetIndex(lineAddr), lineAddr, owner, write, mask)
}

// InsertIdx is Insert with an explicit set index.
func (c *Cache) InsertIdx(setIdx int, lineAddr uint64, owner int, write bool, mask uint64) int {
	c.guardMutation()
	mask &= c.allMask
	if mask == 0 {
		panic("cache: insertion with empty way mask")
	}
	st := &c.sets[setIdx]
	// Prefer the lowest-numbered invalid allowed way; otherwise the least
	// recently used allowed way. The victim moves to the MRU position.
	var victim int
	var order uint64
	if inv := mask &^ st.valid; inv != 0 {
		victim = bits.TrailingZeros64(inv)
		order = promote(st.order, victim)
	} else if mask == c.allMask {
		// Unrestricted insertion (private caches, shared policies): the
		// victim is the LRU nibble, and every other way ages one position.
		victim = int(st.order >> c.lruShift)
		order = st.order<<4&c.orderMask | uint64(victim)
	} else {
		// Masked insertion: the first allowed way walking from the LRU end.
		victim = -1
		for shift := int(c.lruShift); shift >= 0; shift -= 4 {
			if w := int(st.order>>uint(shift)) & 0xF; mask>>uint(w)&1 != 0 {
				victim = w
				order = promoteAt(st.order, w, uint(shift))
				break
			}
		}
		if victim < 0 {
			panic(fmt.Sprintf("cache: set %d recency order %#x lists no way of mask %#x", setIdx, st.order, mask))
		}
	}
	vIdx := setIdx*c.stride + victim
	vBit := uint64(1) << uint(victim)
	if st.valid&vBit != 0 {
		c.Stats.Evictions++
		if st.dirty&vBit != 0 {
			c.Stats.DirtyEvicts++
		}
		if c.OnEvict != nil || c.trackOwners {
			evicted := c.lineAt(setIdx, victim)
			c.noteRemoval(evicted)
			c.fireEvict(evicted)
		}
	}
	c.clk++
	c.words[vIdx] = lineAddr
	c.words[vIdx+c.Ways] = c.clk
	if c.trackOwners {
		c.words[vIdx+2*c.Ways] = 0
		c.words[vIdx+3*c.Ways] = uint64(uint16(int16(owner)))
		c.noteInsert(owner)
	}
	st.order = order
	st.valid |= vBit
	if write {
		st.dirty |= vBit
	} else {
		st.dirty &^= vBit
	}
	return vIdx
}

// clearSlot zeroes every per-line field of a slot and drops its valid/dirty
// bits (snapshots dump invalid slots too, so the stored words must stay
// zero). The way keeps its recency position: invalid ways are always
// preferred victims, so their position is never consulted.
func (c *Cache) clearSlot(setIdx, way int) {
	base := setIdx * c.stride
	c.words[base+way] = 0
	c.words[base+c.Ways+way] = 0
	if c.trackOwners {
		c.words[base+2*c.Ways+way] = 0
		c.words[base+3*c.Ways+way] = 0
	}
	bit := uint64(1) << uint(way)
	c.sets[setIdx].valid &^= bit
	c.sets[setIdx].dirty &^= bit
}

// InvalidateLine removes a specific line if present, returning its metadata.
// The OnEvict hook fires so inclusive upper levels are cleaned.
func (c *Cache) InvalidateLine(lineAddr uint64) (Line, bool) {
	return c.InvalidateLineIdx(c.SetIndex(lineAddr), lineAddr)
}

// InvalidateLineIdx is InvalidateLine with an explicit set index.
func (c *Cache) InvalidateLineIdx(setIdx int, lineAddr uint64) (Line, bool) {
	c.guardMutation()
	w := c.findLine(setIdx, lineAddr)
	if w < 0 {
		return Line{}, false
	}
	ln := c.lineAt(setIdx, w)
	c.clearSlot(setIdx, w)
	c.Stats.Invals++
	c.noteRemoval(ln)
	c.fireEvict(ln)
	return ln, true
}

// InvalidateMatching is the bulk-invalidation unit (Section II-C3): it walks
// every tag and invalidates lines for which pred returns true, firing OnEvict
// for each. It returns the number of lines invalidated. The walk itself
// models the hardware range-invalidation engine; callers charge its latency.
//
// OnEvict fires mid-walk with the array in a partially-invalidated state;
// see the EvictFn contract for what callbacks may and may not do.
func (c *Cache) InvalidateMatching(pred func(line Line) bool) int {
	c.guardMutation()
	c.Stats.BulkWalks++
	c.walking = true
	n := 0
	for set := range c.sets {
		for m := c.sets[set].valid; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			ln := c.lineAt(set, w)
			if !pred(ln) {
				continue
			}
			c.clearSlot(set, w)
			n++
			c.Stats.Invals++
			c.noteRemoval(ln)
			if c.OnEvict != nil {
				c.OnEvict(ln)
			}
		}
	}
	c.walking = false
	return n
}

// ReassignOwner rewrites the owner field of every valid line owned by old to
// new, returning the number of lines relabeled. Contents, recency, sharers
// and dirty state are untouched — this is the migration primitive: when a
// thread moves tiles its partition follows it, so the lines it placed keep
// serving hits under the new partition id instead of being flushed. The walk
// models the same range engine as InvalidateMatching; callers charge latency.
// A private cache records no owners and relabels nothing.
func (c *Cache) ReassignOwner(old, new int) int {
	c.guardMutation()
	if old == new {
		return 0
	}
	c.Stats.BulkWalks++
	if !c.trackOwners {
		return 0
	}
	oldWord := uint64(uint16(int16(old)))
	newWord := uint64(uint16(int16(new)))
	n := 0
	for set := range c.sets {
		base := set * c.stride
		for m := c.sets[set].valid; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if c.words[base+3*c.Ways+w] != oldWord {
				continue
			}
			c.words[base+3*c.Ways+w] = newWord
			n++
		}
	}
	if n > 0 {
		if old >= 0 && old < len(c.occupancy) {
			c.occupancy[old] -= uint64(n)
		}
		if new >= 0 && new < len(c.occupancy) {
			c.occupancy[new] += uint64(n)
		}
	}
	return n
}

// InvalidateAll drops every line (used when re-purposing a bank).
func (c *Cache) InvalidateAll() int {
	return c.InvalidateMatching(func(Line) bool { return true })
}

// Occupancy returns the number of valid lines owned by the partition. Only
// meaningful when the cache tracks owners.
func (c *Cache) Occupancy(owner int) uint64 {
	if !c.trackOwners || owner < 0 || owner >= len(c.occupancy) {
		return 0
	}
	return c.occupancy[owner]
}

// ValidLines returns the total number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.sets {
		n += bits.OnesCount64(c.sets[i].valid)
	}
	return n
}

// ForEachLine visits every valid line in array order as (flat index, value).
// Mutation during the walk is not allowed; use PutLineRaw afterwards with a
// recorded index where a test needs to alter a visited line.
func (c *Cache) ForEachLine(fn func(idx int, ln Line)) {
	for set := range c.sets {
		base := set * c.stride
		for m := c.sets[set].valid; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(base+w, c.lineAt(set, w))
		}
	}
}

// TracksOwners reports whether per-partition occupancy accounting is on.
func (c *Cache) TracksOwners() bool { return c.trackOwners }

// Partitions returns the size of the occupancy table (0 when owners are not
// tracked); the invariant checker recounts against it.
func (c *Cache) Partitions() int { return len(c.occupancy) }

// guardMutation panics on re-entrant mutation from an OnEvict callback; see
// the EvictFn contract.
func (c *Cache) guardMutation() {
	if c.walking {
		panic("cache: re-entrant mutation during an invalidation walk (OnEvict must not mutate the cache it fired from)")
	}
}

// fireEvict invokes OnEvict with the re-entrancy guard held, preserving an
// enclosing walk's guard state.
func (c *Cache) fireEvict(ln Line) {
	if c.OnEvict == nil {
		return
	}
	was := c.walking
	c.walking = true
	c.OnEvict(ln)
	c.walking = was
}

func (c *Cache) noteInsert(owner int) {
	if c.trackOwners && owner >= 0 && owner < len(c.occupancy) {
		c.occupancy[owner]++
	}
}

func (c *Cache) noteRemoval(ln Line) {
	if c.trackOwners && ln.Owner >= 0 && int(ln.Owner) < len(c.occupancy) {
		c.occupancy[ln.Owner]--
	}
}
