package cache

import (
	"fmt"
	"reflect"
	"testing"

	"delta/internal/sim"
	"delta/internal/snapshot"
)

// refCache is a deliberately naive model of Cache, the oracle for
// FuzzCacheVsReference: an array of line structs, exact LRU by recency
// stamp (lowest stamp, lowest way on ties), the lowest invalid allowed way
// first. It keeps no per-set masks, no packed order and no tiled words.
type refCache struct {
	sets, ways int
	track      bool
	lines      []Line // set*ways + way
	clk        uint64
	occ        []uint64
	stats      Stats
}

func newRef(sets, ways int, track bool, partitions int) *refCache {
	r := &refCache{sets: sets, ways: ways, track: track, lines: make([]Line, sets*ways)}
	if track {
		r.occ = make([]uint64, partitions)
	}
	return r
}

func (r *refCache) set(s int) []Line { return r.lines[s*r.ways : (s+1)*r.ways] }

func (r *refCache) find(s int, addr uint64) int {
	for w, ln := range r.set(s) {
		if ln.Valid && ln.Addr == addr {
			return w
		}
	}
	return -1
}

func (r *refCache) lookup(s int, addr uint64, write bool) (int, bool) {
	r.stats.Accesses++
	w := r.find(s, addr)
	if w < 0 {
		r.stats.Misses++
		return -1, false
	}
	r.stats.Hits++
	r.clk++
	ln := &r.set(s)[w]
	ln.used = r.clk
	ln.Dirty = ln.Dirty || write
	return w, true
}

func (r *refCache) removed(ln Line) {
	if r.track && ln.Owner >= 0 && int(ln.Owner) < len(r.occ) {
		r.occ[ln.Owner]--
	}
}

// insert returns the victim way and the displaced valid line, if any.
func (r *refCache) insert(s int, addr uint64, owner int, write bool, mask uint64) (int, []Line) {
	lines := r.set(s)
	victim := -1
	for w := range lines {
		if mask>>uint(w)&1 != 0 && !lines[w].Valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w := range lines {
			if mask>>uint(w)&1 != 0 && (victim < 0 || lines[w].used < lines[victim].used) {
				victim = w
			}
		}
	}
	var evicted []Line
	if old := lines[victim]; old.Valid {
		r.stats.Evictions++
		if old.Dirty {
			r.stats.DirtyEvicts++
		}
		r.removed(old)
		evicted = append(evicted, old)
	}
	r.clk++
	ln := Line{Addr: addr, Valid: true, Dirty: write, Owner: NoOwner, used: r.clk}
	if r.track {
		ln.Owner = int16(owner)
		if owner >= 0 && owner < len(r.occ) {
			r.occ[owner]++
		}
	}
	lines[victim] = ln
	return victim, evicted
}

func (r *refCache) invalidateLine(s int, addr uint64) []Line {
	w := r.find(s, addr)
	if w < 0 {
		return nil
	}
	old := r.set(s)[w]
	r.set(s)[w] = Line{}
	r.stats.Invals++
	r.removed(old)
	return []Line{old}
}

func (r *refCache) invalidateMatching(pred func(Line) bool) []Line {
	r.stats.BulkWalks++
	var out []Line
	for i, ln := range r.lines {
		if ln.Valid && pred(ln) {
			r.lines[i] = Line{}
			r.stats.Invals++
			r.removed(ln)
			out = append(out, ln)
		}
	}
	return out
}

func (r *refCache) reassign(old, new int) int {
	if old == new {
		return 0
	}
	r.stats.BulkWalks++
	if !r.track {
		return 0
	}
	n := 0
	for i := range r.lines {
		if r.lines[i].Valid && int(r.lines[i].Owner) == old {
			r.lines[i].Owner = int16(new)
			n++
		}
	}
	if n > 0 {
		r.occ[old] -= uint64(n)
		r.occ[new] += uint64(n)
	}
	return n
}

func (r *refCache) snapshot() snapshot.Cache {
	n := len(r.lines)
	s := snapshot.Cache{
		Sets: r.sets, Ways: r.ways, Clk: r.clk,
		Addrs: make([]uint64, n), Flags: make([]byte, n), Owners: make([]int16, n),
		Sharers: make([]uint64, n), Used: make([]uint64, n),
		Stats: snapshot.CacheStats(r.stats),
	}
	for i, ln := range r.lines {
		s.Addrs[i], s.Owners[i], s.Sharers[i], s.Used[i] = ln.Addr, ln.Owner, ln.Sharers, ln.used
		if ln.Valid {
			s.Flags[i] |= 1
		}
		if ln.Dirty {
			s.Flags[i] |= 2
		}
	}
	if r.track {
		s.Occupancy = append([]uint64(nil), r.occ...)
	}
	return s
}

// refPartitions is the occupancy table size of the fuzzed owner-tracking
// caches.
const refPartitions = 4

// driveVsReference runs one op stream through a Cache and the reference,
// comparing every observable after each op. data[0] picks the
// configuration: 8 or 16 ways, owner tracking on or off, OnEvict hooked or
// not (unhooked private caches take the path that builds no Line). Each op
// then reads three bytes: operation, address, way mask.
func driveVsReference(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfgByte := data[0]
	ways := 8
	if cfgByte&1 != 0 {
		ways = 16
	}
	track := cfgByte&2 != 0
	hooked := cfgByte&4 != 0
	const sets = 4
	c := New(Config{SizeBytes: sets * ways * LineBytes, Ways: ways, TrackOwners: track, Partitions: refPartitions})
	ref := newRef(sets, ways, track, refPartitions)
	var evicted []Line
	if hooked {
		c.OnEvict = func(ln Line) { evicted = append(evicted, ln) }
	}
	all := c.AllMask()

	ops := data[1:]
	for step := 0; step+3 <= len(ops); step += 3 {
		op, a, m := ops[step], ops[step+1], ops[step+2]
		addr := uint64(a) % 96 // three lines' worth per way across 4 sets: constant conflict
		s := c.SetIndex(addr)
		write := op&0x10 != 0
		owner := int(op>>5) % refPartitions
		evicted = evicted[:0]
		var want []Line
		var desc string
		switch op & 7 {
		case 0, 1, 2:
			desc = fmt.Sprintf("lookup %#x write=%v", addr, write)
			idx, hit := c.Lookup(addr, write)
			rw, rhit := ref.lookup(s, addr, write)
			if hit != rhit || (hit && c.WayOf(idx) != rw) {
				t.Fatalf("step %d %s: hit=%v way=%d, reference hit=%v way=%d", step/3, desc, hit, c.WayOf(idx), rhit, rw)
			}
			if hit && track && op&0x08 != 0 {
				c.OrSharers(idx, 1<<uint(owner))
				ref.set(s)[rw].Sharers |= 1 << uint(owner)
			}
		case 3, 4, 5:
			if c.Probe(addr) {
				continue
			}
			mask := uint64(m)
			if ways == 16 {
				mask |= uint64(op) << 8
			}
			if op&0x08 != 0 || mask&all == 0 {
				mask = all
			}
			desc = fmt.Sprintf("insert %#x owner=%d write=%v mask=%#x", addr, owner, write, mask&all)
			idx := c.Insert(addr, owner, write, mask)
			rw, ev := ref.insert(s, addr, owner, write, mask&all)
			if c.WayOf(idx) != rw {
				t.Fatalf("step %d %s: victim way %d, reference %d", step/3, desc, c.WayOf(idx), rw)
			}
			want = ev
		case 6:
			desc = fmt.Sprintf("invalidate %#x", addr)
			_, ok := c.InvalidateLine(addr)
			want = ref.invalidateLine(s, addr)
			if ok != (len(want) == 1) {
				t.Fatalf("step %d %s: removed=%v, reference %v", step/3, desc, ok, len(want) == 1)
			}
		case 7:
			if track && op&0x08 != 0 {
				to := int(m) % refPartitions
				desc = fmt.Sprintf("reassign %d->%d", owner, to)
				if n, rn := c.ReassignOwner(owner, to), ref.reassign(owner, to); n != rn {
					t.Fatalf("step %d %s: relabeled %d, reference %d", step/3, desc, n, rn)
				}
				break
			}
			k := uint64(m) % 4
			desc = fmt.Sprintf("invalidate matching addr%%4==%d or owner==%d", k, k)
			pred := func(ln Line) bool { return ln.Addr%4 == k || int(ln.Owner) == int(k) }
			n := c.InvalidateMatching(pred)
			want = ref.invalidateMatching(pred)
			if n != len(want) {
				t.Fatalf("step %d %s: removed %d, reference %d", step/3, desc, n, len(want))
			}
		}
		if hooked {
			if len(evicted) != len(want) {
				t.Fatalf("step %d %s: %d lines left, reference %d", step/3, desc, len(evicted), len(want))
			}
			for i := range want {
				g, w := evicted[i], want[i]
				if g.Addr != w.Addr || g.Dirty != w.Dirty || g.Owner != w.Owner || g.Sharers != w.Sharers {
					t.Fatalf("step %d %s: line %d left as %+v, reference %+v", step/3, desc, i, g, w)
				}
			}
		}
		for p := 0; p < refPartitions; p++ {
			var want uint64
			if track {
				want = ref.occ[p]
			}
			if got := c.Occupancy(p); got != want {
				t.Fatalf("step %d %s: occupancy[%d] = %d, reference %d", step/3, desc, p, got, want)
			}
		}
		if got, want := c.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: snapshot diverged\n got %+v\nwant %+v", step/3, desc, got, want)
		}
		if err := c.CheckOrder(); err != nil {
			t.Fatalf("step %d %s: %v", step/3, desc, err)
		}
	}
}

// refStream is a pseudo-random op stream for configuration cfgByte.
func refStream(cfgByte byte, ops int) []byte {
	rng := sim.NewRng(uint64(cfgByte) + 1)
	data := []byte{cfgByte}
	for i := 0; i < 3*ops; i++ {
		data = append(data, byte(rng.Uint64()))
	}
	return data
}

// TestCacheVsReference runs long pseudo-random streams through every one of
// the eight configurations, so the plain test run covers every path the
// fuzzer explores.
func TestCacheVsReference(t *testing.T) {
	for cfgByte := byte(0); cfgByte < 8; cfgByte++ {
		driveVsReference(t, refStream(cfgByte, 4000))
	}
}

// FuzzCacheVsReference drives Cache and the naive reference with the same
// op stream — lookups, masked and unrestricted inserts, sharer updates,
// single and bulk invalidations, owner relabels — at 8 and 16 ways, with
// and without owner tracking, and requires identical hits, victims,
// departing lines, occupancy and snapshots after every op.
func FuzzCacheVsReference(f *testing.F) {
	for cfgByte := byte(0); cfgByte < 8; cfgByte++ {
		f.Add(refStream(cfgByte, 100))
	}
	f.Fuzz(driveVsReference)
}
