package consistency

import (
	"testing"

	"repro/internal/history"
)

func TestMPCHoldsOnExtendingReads(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	c := chainN(4)
	recordChain(rec, c)
	rec.Read(0, c[:2])
	rec.Read(1, c[:3])
	rec.Read(0, c[:4])
	rec.Read(1, c)
	rep := NewChecker(nil, nil).MonotonicPrefix(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("extending reads rejected: %v", rep.Violations)
	}
	if rep.Checked != 2 {
		t.Fatalf("checked %d pairs, want 2 (one per process)", rep.Checked)
	}
}

func TestMPCDetectsReorg(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	a := chainN(3)
	b := forkN(a, 1, 2) // same length, different branch
	recordChain(rec, a, b)
	rec.Read(0, a)
	rec.Read(0, b) // same score: LMR passes, MPC must fail
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if rep := classified(chk, h, "LocalMonotonicRead"); !rep.OK {
		t.Fatalf("LMR should tolerate the same-score switch: %v", rep.Violations)
	}
	if rep := chk.MonotonicPrefix(h); rep.OK {
		t.Fatal("reorg not detected by MPC")
	}
}

func TestMPCIgnoresCrossProcessLag(t *testing.T) {
	// A later read by a *different* process may lag behind (its
	// replica has not caught up): session MPC does not flag it.
	rec := history.NewRecorder(2, nil)
	c := chainN(3)
	recordChain(rec, c)
	rec.Read(0, c)     // p0 far ahead
	rec.Read(1, c[:2]) // p1 lagging — ordered after p0's read
	rep := NewChecker(nil, nil).MonotonicPrefix(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("cross-process lag flagged: %v", rep.Violations)
	}
}

func TestMPCExcludesFaulty(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	a := chainN(3)
	b := forkN(a, 0, 3)
	recordChain(rec, a, b)
	rec.Read(1, a)
	rec.Read(1, b) // Byzantine reorg
	rec.MarkFaulty(1)
	rep := NewChecker(nil, nil).MonotonicPrefix(rec.Snapshot())
	if !rep.OK == false && rep.Checked != 0 {
		t.Fatal("faulty process counted")
	}
	if !rep.OK {
		t.Fatalf("faulty process's reorg flagged: %v", rep.Violations)
	}
}

func TestMPCImpliedByStrongPrefixPlusGrowth(t *testing.T) {
	// On a single growing chain read in response order, SP and MPC
	// both hold — the k=1 consensus family's shape.
	rec := history.NewRecorder(3, nil)
	c := chainN(6)
	recordChain(rec, c)
	for i := 1; i <= 6; i++ {
		rec.Read(i%3, c[:i+1])
	}
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if !newBatchOracle(chk, h).strongPrefixPairwise().OK || !chk.MonotonicPrefix(h).OK {
		t.Fatal("clean chain run rejected")
	}
}
