package cbt

import (
	"reflect"
	"testing"

	"delta/internal/snapshot"
)

// TestSnapshotRoundTripsSplitBank: BuildIncremental moves single buckets, so
// a bank can own several maximal runs. Such a table must survive
// Snapshot/FromSnapshot unchanged.
func TestSnapshotRoundTripsSplitBank(t *testing.T) {
	prev := Build([]Share{{Bank: 0, Ways: 4}, {Bank: 1, Ways: 4}, {Bank: 2, Ways: 4}})
	tbl := BuildIncremental(prev, []Share{{Bank: 0, Ways: 4}, {Bank: 1, Ways: 2}, {Bank: 2, Ways: 6}})
	runs := 0
	for _, r := range tbl.Ranges() {
		if r.Bank == 2 {
			runs++
		}
	}
	if runs < 2 {
		t.Fatalf("reproducer no longer splits bank 2: ranges %v", tbl.Ranges())
	}
	got, err := FromSnapshot(tbl.Snapshot())
	if err != nil {
		t.Fatalf("restore of a split-bank table: %v", err)
	}
	if !reflect.DeepEqual(got.Ranges(), tbl.Ranges()) {
		t.Fatalf("ranges %v, want %v", got.Ranges(), tbl.Ranges())
	}
	for b := 0; b < NumBuckets; b++ {
		if got.Bank(b) != tbl.Bank(b) {
			t.Fatalf("bucket %d maps to bank %d, want %d", b, got.Bank(b), tbl.Bank(b))
		}
	}
}

// TestFromSnapshotRejectsMalformedRanges: gaps, overruns, short coverage and
// adjacent ranges of one bank (a non-maximal run no builder emits) fail.
func TestFromSnapshotRejectsMalformedRanges(t *testing.T) {
	for name, rs := range map[string][]snapshot.CBTRange{
		"empty":         nil,
		"gap":           {{Start: 0, End: 100, Bank: 0}, {Start: 101, End: NumBuckets, Bank: 1}},
		"overrun":       {{Start: 0, End: NumBuckets + 1, Bank: 0}},
		"short":         {{Start: 0, End: 100, Bank: 0}},
		"adjacent bank": {{Start: 0, End: 100, Bank: 3}, {Start: 100, End: NumBuckets, Bank: 3}},
	} {
		if _, err := FromSnapshot(snapshot.CBT{Ranges: rs}); err == nil {
			t.Errorf("%s: accepted %v", name, rs)
		}
	}
}
