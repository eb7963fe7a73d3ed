package cache

import (
	"fmt"

	"delta/internal/snapshot"
)

// Snapshot captures the full array state — every slot (valid or not, since
// victim choice depends on exact layout and LRU stamps), the recency clock,
// per-partition occupancy, and stats — as parallel positional slices. The
// packed recency orders are not stored: they are a function of the stamps
// and Restore rebuilds them. A private cache has no owner or sharer words;
// its snapshot records NoOwner for valid lines and 0 elsewhere, the values
// such caches always held when every cache stored them, so encodings stay
// byte-identical across layout changes. Invalid slots store zeroes.
func (c *Cache) Snapshot() snapshot.Cache {
	n := c.Sets * c.Ways
	s := snapshot.Cache{
		Sets:    c.Sets,
		Ways:    c.Ways,
		Clk:     c.clk,
		Addrs:   make([]uint64, n),
		Flags:   make([]byte, n),
		Owners:  make([]int16, n),
		Sharers: make([]uint64, n),
		Used:    make([]uint64, n),
		Stats: snapshot.CacheStats{
			Accesses:    c.Stats.Accesses,
			Hits:        c.Stats.Hits,
			Misses:      c.Stats.Misses,
			Evictions:   c.Stats.Evictions,
			DirtyEvicts: c.Stats.DirtyEvicts,
			Invals:      c.Stats.Invals,
			BulkWalks:   c.Stats.BulkWalks,
		},
	}
	for set := 0; set < c.Sets; set++ {
		lines := set * c.Ways
		block := c.words[set*c.stride : (set+1)*c.stride]
		copy(s.Addrs[lines:lines+c.Ways], block[:c.Ways])
		copy(s.Used[lines:lines+c.Ways], block[c.Ways:2*c.Ways])
		if c.trackOwners {
			copy(s.Sharers[lines:lines+c.Ways], block[2*c.Ways:3*c.Ways])
			for w, o := range block[3*c.Ways:] {
				s.Owners[lines+w] = int16(uint16(o))
			}
		}
		v, d := c.sets[set].valid, c.sets[set].dirty
		for w := 0; w < c.Ways; w++ {
			var f byte
			if v&(1<<uint(w)) != 0 {
				f |= 1
				if !c.trackOwners {
					s.Owners[lines+w] = NoOwner
				}
			}
			if d&(1<<uint(w)) != 0 {
				f |= 2
			}
			s.Flags[lines+w] = f
		}
	}
	if c.occupancy != nil {
		s.Occupancy = append([]uint64(nil), c.occupancy...)
	}
	return s
}

// Restore overwrites the array state from a snapshot taken on a cache with
// identical geometry and rebuilds every set's recency order from the stamps,
// allocating nothing. The OnEvict callback and owner-tracking mode are
// construction-time configuration and are left untouched. A private cache
// rejects a snapshot whose owner or sharer entries it could not have
// produced (see Snapshot), since it has no words to hold them.
func (c *Cache) Restore(s snapshot.Cache) error {
	if s.Sets != c.Sets || s.Ways != c.Ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d, cache is %dx%d", s.Sets, s.Ways, c.Sets, c.Ways)
	}
	n := c.Sets * c.Ways
	if len(s.Addrs) != n || len(s.Flags) != n || len(s.Owners) != n || len(s.Sharers) != n || len(s.Used) != n {
		return fmt.Errorf("cache: snapshot arrays do not cover %d lines", n)
	}
	if c.trackOwners {
		if len(s.Occupancy) != len(c.occupancy) {
			return fmt.Errorf("cache: snapshot occupancy has %d partitions, cache has %d", len(s.Occupancy), len(c.occupancy))
		}
	} else {
		if len(s.Occupancy) != 0 {
			return fmt.Errorf("cache: snapshot carries occupancy but owner tracking is off")
		}
		for i, f := range s.Flags {
			want := int16(0)
			if f&1 != 0 {
				want = NoOwner
			}
			if s.Owners[i] != want || s.Sharers[i] != 0 {
				return fmt.Errorf("cache: snapshot line %d has owner %d, sharers %#x; a private cache holds owner %d, no sharers",
					i, s.Owners[i], s.Sharers[i], want)
			}
		}
	}
	for set := 0; set < c.Sets; set++ {
		lines := set * c.Ways
		block := c.words[set*c.stride : (set+1)*c.stride]
		copy(block[:c.Ways], s.Addrs[lines:lines+c.Ways])
		copy(block[c.Ways:2*c.Ways], s.Used[lines:lines+c.Ways])
		if c.trackOwners {
			copy(block[2*c.Ways:3*c.Ways], s.Sharers[lines:lines+c.Ways])
			for w, o := range s.Owners[lines : lines+c.Ways] {
				block[3*c.Ways+w] = uint64(uint16(o))
			}
		}
		var v, d uint64
		for w, f := range s.Flags[lines : lines+c.Ways] {
			if f&1 != 0 {
				v |= 1 << uint(w)
			}
			if f&2 != 0 {
				d |= 1 << uint(w)
			}
		}
		c.sets[set].valid = v
		c.sets[set].dirty = d
		c.rebuildOrder(set)
	}
	c.clk = s.Clk
	copy(c.occupancy, s.Occupancy)
	c.Stats = Stats{
		Accesses:    s.Stats.Accesses,
		Hits:        s.Stats.Hits,
		Misses:      s.Stats.Misses,
		Evictions:   s.Stats.Evictions,
		DirtyEvicts: s.Stats.DirtyEvicts,
		Invals:      s.Stats.Invals,
		BulkWalks:   s.Stats.BulkWalks,
	}
	return nil
}
