package cbt

import (
	"fmt"

	"delta/internal/snapshot"
)

// Snapshot captures the table's range entries; the dense bucket array is
// derived and rebuilt on restore.
func (t *Table) Snapshot() snapshot.CBT {
	s := snapshot.CBT{Ranges: make([]snapshot.CBTRange, len(t.ranges))}
	for i, r := range t.ranges {
		s.Ranges[i] = snapshot.CBTRange{Start: r.Start, End: r.End, Bank: r.Bank}
	}
	return s
}

// FromSnapshot rebuilds a table from serialized ranges, re-validating the
// structural invariants every builder guarantees: sorted, non-empty,
// contiguous ranges covering exactly [0, NumBuckets), each a maximal run
// (adjacent ranges map to different banks). A bank may own several runs:
// BuildIncremental moves single buckets, so its tables are not one range
// per bank.
func FromSnapshot(s snapshot.CBT) (*Table, error) {
	if len(s.Ranges) == 0 {
		return nil, fmt.Errorf("cbt: snapshot table has no ranges")
	}
	t := &Table{ranges: make([]Range, len(s.Ranges))}
	pos := 0
	for i, r := range s.Ranges {
		if r.Start != pos || r.End <= r.Start || r.End > NumBuckets {
			return nil, fmt.Errorf("cbt: snapshot range %d [%d,%d) is not contiguous from %d", i, r.Start, r.End, pos)
		}
		if i > 0 && s.Ranges[i-1].Bank == r.Bank {
			return nil, fmt.Errorf("cbt: snapshot ranges %d and %d both map bank %d (runs must be maximal)", i-1, i, r.Bank)
		}
		t.ranges[i] = Range{Start: r.Start, End: r.End, Bank: r.Bank}
		for b := r.Start; b < r.End; b++ {
			t.dense[b] = int16(r.Bank)
		}
		pos = r.End
	}
	if pos != NumBuckets {
		return nil, fmt.Errorf("cbt: snapshot ranges cover [0,%d), want [0,%d)", pos, NumBuckets)
	}
	return t, nil
}
