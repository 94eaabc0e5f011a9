package persist

import (
	"math/rand"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/holo"
	"slamshare/internal/smap"
)

// TestRecoverRollsBackOpenImportBracket proves cross-shard import
// atomicity at the WAL level: a ShardImportBegin with no matching end
// marker (the server was killed mid boundary-import) makes recovery
// discard the journal from the begin marker on — the half-merge's
// inserts are gone, the pre-import map is intact.
func TestRecoverRollsBackOpenImportBracket(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(7))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 3, 40, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	baseKF, baseMP := m.NKeyFrames(), m.NMapPoints()

	// An import transaction that never completes: begin marker, two
	// keyframes' worth of inserts, then the "crash" (abandon, no Close,
	// no end marker).
	mgr.Journal().ShardImportBegin(5, 2)
	imp := smap.NewIDAllocator(9)
	populate(rng, m, imp, 9, 2, 40, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.ImportRolledBack || rec.ImportEpoch != 5 {
		t.Fatalf("ImportRolledBack=%v epoch=%d, want true epoch 5", rec.ImportRolledBack, rec.ImportEpoch)
	}
	if rec.Map.NKeyFrames() != baseKF || rec.Map.NMapPoints() != baseMP {
		t.Fatalf("recovered %d kf / %d mp, want pre-import %d / %d",
			rec.Map.NKeyFrames(), rec.Map.NMapPoints(), baseKF, baseMP)
	}
	if chk := rec.Map.CheckInvariants(); !chk.OK() {
		t.Fatalf("recovered map violates invariants: %v", chk.Violations)
	}

	// Double-crash: the rollback must be physical, not just skipped
	// during this one replay. A new session journals on top of the
	// recovered state; a second recovery must see its records (if the
	// half-merge tail were still on disk, replay would stop at it and
	// never reach the new journal file).
	mgr2, err := Open(opts, rec.Map, rec.Anchors, rec.LastSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc2 := smap.NewIDAllocatorFrom(1, 1000)
	populate(rng, rec.Map, alloc2, 1, 1, 40, 6)
	if err := mgr2.Flush(); err != nil {
		t.Fatal(err)
	}
	wantKF, wantMP := rec.Map.NKeyFrames(), rec.Map.NMapPoints()

	rec2, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ImportRolledBack {
		t.Error("second recovery re-reported a rolled-back import")
	}
	if rec2.Map.NKeyFrames() != wantKF || rec2.Map.NMapPoints() != wantMP {
		t.Fatalf("second recovery: %d kf / %d mp, want %d / %d",
			rec2.Map.NKeyFrames(), rec2.Map.NMapPoints(), wantKF, wantMP)
	}
	mgr.Close()
	mgr2.Close()
}

// TestRecoverKeepsClosedImportBracket proves the converse: a completed
// import (begin + end markers around its inserts) survives recovery in
// full, whether it committed or recorded a live rollback.
func TestRecoverKeepsClosedImportBracket(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(8))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 2, 40, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}

	mgr.Journal().ShardImportBegin(3, 4)
	imp := smap.NewIDAllocator(4)
	populate(rng, m, imp, 4, 2, 40, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	mgr.Journal().ShardImportEnd(3, true)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.ImportRolledBack {
		t.Error("closed bracket reported as rolled back")
	}
	assertMapsEqual(t, m, rec.Map)
	mgr.Close()
}
