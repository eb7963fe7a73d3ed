package cache

import (
	"reflect"
	"testing"

	"delta/internal/snapshot"
)

// churn drives a deterministic mixed workload — lookups, masked inserts,
// invalidations, sharer updates — so the array state carries every field the
// snapshot must capture: LRU stamps, dirty bits, owners, occupancy, sharers.
func churn(c *Cache, seed uint64, ops int) {
	x := seed
	for i := 0; i < ops; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) & 0xfff
		owner := int((x >> 20) & 3)
		write := x&1 != 0
		switch (x >> 8) & 7 {
		case 0:
			c.InvalidateLine(addr)
		case 1:
			if idx, ok := c.Lookup(addr, write); ok && c.TracksOwners() {
				c.OrSharers(idx, 1<<uint(owner))
			}
		default:
			mask := c.AllMask()
			if (x>>16)&3 == 0 {
				mask = 0xF << uint(owner) // masked insert exercises WayMask paths
			}
			if idx, ok := c.Lookup(addr, write); !ok {
				c.Insert(addr, owner, write, mask)
			} else if c.TracksOwners() {
				c.OrSharers(idx, 1<<uint(owner))
			}
		}
	}
}

// TestSnapshotRestoreRoundTrip pins the SoA snapshot contract: a restored
// cache must be behaviorally indistinguishable from the original — identical
// re-snapshot, identical stats, and identical victim choices under the same
// subsequent workload (victim choice depends on exact LRU stamps and slot
// positions, so this catches any lossy packing of the words array).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	mk := func() *Cache {
		return New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4})
	}
	orig := mk()
	churn(orig, 42, 5000)

	snap := orig.Snapshot()
	restored := mk()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Fatal("re-snapshot of restored cache differs from original snapshot")
	}
	if restored.Stats != orig.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", restored.Stats, orig.Stats)
	}
	for p := 0; p < 4; p++ {
		if restored.Occupancy(p) != orig.Occupancy(p) {
			t.Fatalf("partition %d occupancy %d, want %d", p, restored.Occupancy(p), orig.Occupancy(p))
		}
	}

	// Same future: identical eviction decisions access by access.
	churn(orig, 7, 2000)
	churn(restored, 7, 2000)
	if !reflect.DeepEqual(restored.Snapshot(), orig.Snapshot()) {
		t.Fatal("restored cache diverged from original under identical workload")
	}
}

// TestSnapshotRestoreRejectsMismatch: geometry and occupancy-table shape are
// validated before any state is overwritten.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	src := New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4})
	churn(src, 1, 100)
	snap := src.Snapshot()

	if err := New(Config{SizeBytes: 8 * 1024, Ways: 8, TrackOwners: true, Partitions: 4}).Restore(snap); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if err := New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 2}).Restore(snap); err == nil {
		t.Fatal("occupancy shape mismatch accepted")
	}
	if err := New(Config{SizeBytes: 16 * 1024, Ways: 8}).Restore(snap); err == nil {
		t.Fatal("occupancy snapshot accepted by owner-tracking-off cache")
	}
}

// TestRebuiltOrderBreaksStampTiesByLowestWay: the order rebuilt from stamps
// must pick the victim a lowest-stamp scan in way order would, including
// among equal stamps, which only hand-built state can hold.
func TestRebuiltOrderBreaksStampTiesByLowestWay(t *testing.T) {
	c := New(Config{SizeBytes: 4 * LineBytes, Ways: 4}) // one set
	for a := uint64(0); a < 4; a++ {
		c.Insert(a, NoOwner, false, c.AllMask())
	}
	for w := 0; w < 4; w++ {
		ln := c.LineAt(w)
		ln.used = 7
		if w == 0 {
			ln.used = 9 // way 0 is newest; ways 1-3 tie for LRU
		}
		c.PutLineRaw(w, ln)
	}
	if idx := c.Insert(10, NoOwner, false, c.AllMask()); c.WayOf(idx) != 1 {
		t.Fatalf("unrestricted victim way %d, want 1", c.WayOf(idx))
	}
	if idx := c.Insert(11, NoOwner, false, 0b1101); c.WayOf(idx) != 2 {
		t.Fatalf("masked victim way %d, want 2", c.WayOf(idx))
	}
}

// TestPrivateRestoreRejectsDirectoryWords: a private cache stores no owner
// or sharer words, so it accepts only the values its own snapshots carry
// (NoOwner for valid lines, 0 elsewhere, no sharers) and refuses the rest
// instead of dropping them.
func TestPrivateRestoreRejectsDirectoryWords(t *testing.T) {
	src := New(Config{SizeBytes: 16 * 1024, Ways: 8})
	for a := uint64(0); a < 100; a++ {
		src.Insert(a*3, NoOwner, a%2 == 0, src.AllMask())
	}
	snap := src.Snapshot()
	if err := New(Config{SizeBytes: 16 * 1024, Ways: 8}).Restore(snap); err != nil {
		t.Fatalf("own snapshot rejected: %v", err)
	}
	valid, invalid := -1, -1
	for i, f := range snap.Flags {
		if f&1 != 0 && valid < 0 {
			valid = i
		}
		if f&1 == 0 && invalid < 0 {
			invalid = i
		}
	}
	for name, corrupt := range map[string]func(s *snapshot.Cache){
		"owner on valid line":   func(s *snapshot.Cache) { s.Owners[valid] = 2 },
		"owner on invalid line": func(s *snapshot.Cache) { s.Owners[invalid] = NoOwner },
		"sharers":               func(s *snapshot.Cache) { s.Sharers[valid] = 1 },
	} {
		bad := src.Snapshot()
		corrupt(&bad)
		if err := New(Config{SizeBytes: 16 * 1024, Ways: 8}).Restore(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRestoreAllocatesNothing: resuming rebuilds every set's recency order
// in place.
func TestRestoreAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 16 * 1024, Ways: 8},
		{SizeBytes: 16 * 1024, Ways: 16, TrackOwners: true, Partitions: 4},
	} {
		src := New(cfg)
		churn(src, 3, 3000)
		snap := src.Snapshot()
		dst := New(cfg)
		if n := testing.AllocsPerRun(10, func() {
			if err := dst.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%+v: Restore allocates %.0f times", cfg, n)
		}
	}
}
