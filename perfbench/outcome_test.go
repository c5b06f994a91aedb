package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// handBuiltHistory records, on a settable clock, three processes and
// two blocks: b1 reaches every replica (its last update at t=15, five
// ticks after its append responded at t=10) and ends on the final
// chain; b2 never reaches p2, so its append counts as failed. It adds
// one read that returns nothing and one that never responds.
func handBuiltHistory(t *testing.T) (*history.History, *core.Block) {
	t.Helper()
	var now int64
	rec := history.NewRecorder(3, func() int64 { return now })
	g := core.Genesis()
	b1 := core.NewBlock(g.ID, 1, 0, 1, []byte("b1"))
	b2 := core.NewBlock(b1.ID, 2, 1, 2, []byte("b2"))
	update := func(at int64, p int, b *core.Block) {
		now = at
		rec.RecordComm(history.EvUpdate, p, b.Parent, b.ID)
	}

	now = 10
	rec.Append(0, b1, true)
	update(10, 0, b1)
	update(12, 1, b1)
	update(15, 2, b1)
	update(15, 2, b1) // a repeated update does not count twice

	now = 20
	rec.Append(1, b2, true)
	update(20, 1, b2)
	update(23, 0, b2)

	now = 30
	rec.Read(2, nil)               // returned no chain: failed
	rec.InvokeRead(1)              // never responds: failed
	rec.Read(0, core.Chain{g, b1}) // final read of the first correct process
	return rec.Snapshot(), b1
}

func TestAnalyzeCommitsAndFailures(t *testing.T) {
	h, b1 := handBuiltHistory(t)
	out := analyze(h)
	if out.Ops != 5 {
		t.Errorf("Ops = %d, want 5", out.Ops)
	}
	if out.Uncommitted != 1 {
		t.Errorf("Uncommitted = %d, want 1 (b2 never reached p2)", out.Uncommitted)
	}
	if out.Failed != 3 {
		t.Errorf("Failed = %d, want 3 (uncommitted b2, nil read, pending read)", out.Failed)
	}
	want := []commit{{Block: b1.ID, AppendRsp: 10, LastUpdate: 15}}
	if len(out.Commits) != 1 || out.Commits[0] != want[0] {
		t.Fatalf("Commits = %+v, want %+v", out.Commits, want)
	}
}

func TestCommitLatencyInTicks(t *testing.T) {
	got := tickLatenciesMS([]commit{
		{AppendRsp: 1, LastUpdate: 3}, // start of tick 1 → end of tick 3: 3 ticks
		{AppendRsp: 4, LastUpdate: 4}, // applied everywhere within its own tick
	}, 500*time.Microsecond)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 0.5 {
		t.Fatalf("latencies = %v ms, want [1.5 0.5]", got)
	}
}

func TestFailedShare(t *testing.T) {
	var res result
	res.tally(&rep{out: outcome{Ops: 10, Failed: 1}})
	res.tally(&rep{out: outcome{Ops: 30}})
	if res.Attempted != 40 || res.Failed != 1 {
		t.Fatalf("after clean repetitions: %d/%d, want 1/40", res.Failed, res.Attempted)
	}
	res.tally(&rep{out: outcome{Ops: 60, Failed: 2}, err: errors.New("digest mismatch")})
	if res.Attempted != 100 || res.Failed != 61 {
		t.Fatalf("after a failed check: %d/%d, want 61/100 (every op of the failed repetition)", res.Failed, res.Attempted)
	}
}
