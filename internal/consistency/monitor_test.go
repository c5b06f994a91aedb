package consistency

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// reportDump flattens a report for equality checks: OK flag, Checked
// count, every violation string, and every witness (detail + op
// renderings + block IDs).
func reportDump(rep *Report) string {
	if rep == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s ok=%v checked=%d\n", rep.Property, rep.OK, rep.Checked)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "V %s\n", v)
	}
	for _, w := range rep.Witnesses {
		fmt.Fprintf(&b, "W %s | %s |", w.Property, w.Detail)
		for _, op := range w.Ops {
			fmt.Fprintf(&b, " op#%d:%s", op.ID, op)
		}
		for _, id := range w.Blocks {
			fmt.Fprintf(&b, " b:%s", id.Short())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func verdictDump(v *Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ok=%v failing=%v\n", v.Criterion, v.OK, v.Failing())
	for _, rep := range v.Reports {
		b.WriteString(reportDump(rep))
	}
	return b.String()
}

// monitorHarness runs one recorded history through both pipelines: the
// build function records into a Recorder whose sink is the Monitor
// (optionally via a SegmentSink), then the batch oracle on the snapshot
// is compared against Monitor.Finalize, and Classify's replay of the
// snapshot must equal Monitor.Finalize exactly.
type monitorHarness struct {
	horizon int
	segSize int // 0 = direct sink, >0 = route through a SegmentSink
	k       int // when >0, also compare KForkReport(k)
	// epCheckedLoose skips the EventualPrefix Checked comparison
	// against the oracle, which the Monitor matches only on atomic
	// histories (see the equivalence contract in monitor.go).
	epCheckedLoose bool
}

func (hn monitorHarness) run(t *testing.T, procs int, build func(rec *history.Recorder)) {
	t.Helper()
	rec := history.NewRecorder(procs, nil)
	mon := NewMonitor(MonitorConfig{Procs: procs, Horizon: hn.horizon, K: hn.k, Table: rec.Table()})
	var seg *history.SegmentSink
	if hn.segSize > 0 {
		seg = history.NewSegmentSink(hn.segSize, mon.ConsumeSegment)
		seg.OnFaulty = mon.Faulty
		rec.SetSink(seg)
	} else {
		rec.SetSink(mon)
	}
	build(rec)
	h := rec.Snapshot()

	if seg != nil {
		seg.Seal()
	}
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	msc, mec := mon.Finalize()

	chk := NewChecker(nil, nil)
	chk.Horizon = hn.horizon
	csc, cec := chk.Classify(h)
	if got, want := verdictDump(csc)+verdictDump(cec), verdictDump(msc)+verdictDump(mec); got != want {
		t.Errorf("Classify differs from the streamed monitor:\n--- stream ---\n%s--- Classify ---\n%s", want, got)
	}
	bsc, bec := oracleClassify(chk, h)

	scWant, scGot := verdictDump(bsc), verdictDump(msc)
	ecWant, ecGot := verdictDump(bec), verdictDump(mec)
	if hn.epCheckedLoose {
		scWant, scGot = dropEPChecked(scWant), dropEPChecked(scGot)
		ecWant, ecGot = dropEPChecked(ecWant), dropEPChecked(ecGot)
	}
	if scGot != scWant {
		t.Errorf("SC verdict mismatch:\n--- batch ---\n%s--- stream ---\n%s", scWant, scGot)
	}
	if ecGot != ecWant {
		t.Errorf("EC verdict mismatch:\n--- batch ---\n%s--- stream ---\n%s", ecWant, ecGot)
	}
	for _, k := range []int{1, 2, hn.k} {
		if k <= 0 {
			continue
		}
		want := reportDump(oracleKFork(h, k))
		got := reportDump(mon.KForkReport(k))
		if got != want {
			t.Errorf("KFork(%d) mismatch:\n--- batch ---\n%s--- stream ---\n%s", k, want, got)
		}
	}
}

func dropEPChecked(dump string) string {
	lines := strings.Split(dump, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "EventualPrefix ") {
			if j := strings.Index(l, " checked="); j >= 0 {
				lines[i] = l[:j]
			}
		}
	}
	return strings.Join(lines, "\n")
}

func TestMonitorBenignEquivalence(t *testing.T) {
	monitorHarness{}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(5)
		recordChain(rec, c)
		for i := 1; i <= 5; i++ {
			rec.Read(0, c[:i+1])
			rec.Read(1, c[:i+1])
		}
	})
}

func TestMonitorStrongPrefixForkEquivalence(t *testing.T) {
	for _, seg := range []int{0, 3} {
		monitorHarness{segSize: seg, k: 1}.run(t, 2, func(rec *history.Recorder) {
			base := chainN(4)
			fork := forkN(base, 2, 3)
			recordChain(rec, base, fork)
			rec.Read(0, base)
			rec.Read(1, fork)
			rec.Read(0, base[:3])
			rec.Read(1, fork[:4])
			rec.Read(0, fork)
			rec.Read(1, base)
		})
	}
}

func TestMonitorLMRAndEGTEquivalence(t *testing.T) {
	monitorHarness{horizon: 3}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(6)
		recordChain(rec, c)
		rec.Read(0, c)     // long first
		rec.Read(0, c[:3]) // score drop: LMR violation
		rec.Read(1, c[:2]) // stuck low
		rec.Read(0, c[:5]) // window grows past 2
		rec.Read(1, c[:2]) // still stuck: EGT stagnation
		rec.Read(0, c)
	})
}

func TestMonitorEventualPrefixDivergence(t *testing.T) {
	monitorHarness{horizon: 4}.run(t, 2, func(rec *history.Recorder) {
		base := chainN(5)
		fork := forkN(base, 1, 5)
		recordChain(rec, base, fork)
		rec.Read(0, base[:2])
		rec.Read(1, base[:2])
		rec.Read(0, base) // branch A in the final window
		rec.Read(1, fork) // branch B in the final window: diverge below both
		rec.Read(0, base)
		rec.Read(1, fork)
	})
}

func TestMonitorBlockValidityEquivalence(t *testing.T) {
	// Never-appended block, append-after-read, and a pending append.
	monitorHarness{}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(3)
		recordChain(rec, c)
		forged := core.NewBlock(c.Head().ID, c.Head().Height+1, 9, 99, []byte("forged"))
		rec.InternBlock(forged)
		bad := c.Clone().Append(forged)
		rec.Read(0, bad) // forged never appended

		late := core.NewBlock(c.Head().ID, c.Head().Height+1, 1, 50, []byte("late"))
		rec.InternBlock(late)
		withLate := c.Clone().Append(late)
		rec.Read(1, withLate)     // read before its append
		rec.Append(1, late, true) // append only later
		rec.Read(1, withLate)     // now clean

		// Pending append: invoked, never responded. Its invocation
		// index still anchors Block Validity.
		pend := core.NewBlock(late.ID, late.Height+1, 0, 51, []byte("pend"))
		rec.InternBlock(pend)
		rec.InvokeAppend(0, pend)
		rec.Read(0, withLate.Clone().Append(pend))
	})
}

func TestMonitorFaultyProcessExcluded(t *testing.T) {
	monitorHarness{segSize: 2}.run(t, 3, func(rec *history.Recorder) {
		rec.MarkFaulty(2)
		c := chainN(4)
		fork := forkN(c, 0, 4)
		recordChain(rec, c, fork)
		rec.Read(0, c)
		rec.Read(1, c)
		rec.Read(2, fork) // faulty: must not count anywhere
		rec.Read(2, c[:1])
		rec.Read(0, c)
	})
}

func TestMonitorInternedReadsEquivalence(t *testing.T) {
	// ReadHead path: interned (head, length) handles, no explicit chains.
	monitorHarness{k: 1}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(5)
		for _, b := range c {
			rec.InternBlock(b)
		}
		recordChain(rec, c)
		for i := 1; i <= 5; i++ {
			rec.ReadHead(0, c[i])
			rec.ReadHead(1, c[i-1])
		}
	})
}

func TestMonitorManyViolationsCap(t *testing.T) {
	// Force > MaxViolations violations per property to exercise the
	// retention caps and the early-stop Checked reconstruction.
	monitorHarness{horizon: 2, epCheckedLoose: false}.run(t, 2, func(rec *history.Recorder) {
		base := chainN(30)
		fork := forkN(base, 1, 30)
		recordChain(rec, base, fork)
		for i := 2; i <= 29; i++ {
			rec.Read(0, base[:i+1])
			rec.Read(1, fork[:i+1])
			rec.Read(0, base[:2]) // repeated LMR drops + EGT stagnation
		}
		rec.Read(0, base)
		rec.Read(1, fork)
	})
}

func TestMonitorSpanningReads(t *testing.T) {
	// Overlapping completed operations: a read that spans other ops.
	// Everything must match except the documented EventualPrefix
	// Checked divergence.
	monitorHarness{epCheckedLoose: true}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(4)
		recordChain(rec, c)
		op := rec.InvokeRead(0) // spans the next reads
		rec.Read(1, c)
		rec.Read(1, c[:3])
		rec.RespondRead(op, c[:2])
		rec.Read(1, c)
		rec.Read(0, c)
	})
}

func TestMonitorDuplicateAppends(t *testing.T) {
	monitorHarness{k: 1}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(3)
		recordChain(rec, c)
		rec.Append(1, c[2], true) // duplicate successful append
		rec.Append(0, c[3], true) // another duplicate
		rec.Read(0, c)
		rec.Read(1, c)
	})
}

func TestMonitorTokenForks(t *testing.T) {
	monitorHarness{k: 1}.run(t, 3, func(rec *history.Recorder) {
		g := core.Genesis()
		tok := "tkn(seed)"
		b1 := core.NewBlock(g.ID, 1, 0, 1, nil).WithToken(tok)
		b2 := core.NewBlock(g.ID, 1, 1, 2, nil).WithToken(tok)
		b3 := core.NewBlock(g.ID, 1, 2, 3, nil).WithToken(tok)
		for _, b := range []*core.Block{b1, b2, b3} {
			rec.InternBlock(b)
			rec.Append(b.Creator, b, true)
		}
		rec.Read(0, core.GenesisChain().Append(b1))
	})
}

func TestMonitorLiveWitnesses(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	var live []Witness
	mon := NewMonitor(MonitorConfig{
		Procs: 2, K: 1, Table: rec.Table(),
		OnWitness: func(w Witness) { live = append(live, w) },
	})
	rec.SetSink(mon)

	base := chainN(4)
	fork := forkN(base, 1, 4)
	recordChain(rec, base, fork)
	rec.Read(0, base)
	rec.Read(0, base[:2]) // live LMR drop
	rec.Read(1, fork)     // live SP incomparability vs base
	mon.Finalize()

	props := map[string]int{}
	for _, w := range live {
		props[w.Property]++
	}
	if props["LocalMonotonicRead"] == 0 {
		t.Errorf("no live LocalMonotonicRead witness: %v", props)
	}
	if props["StrongPrefix"] == 0 {
		t.Errorf("no live StrongPrefix witness: %v", props)
	}
	if props["1-ForkCoherence"] == 0 {
		t.Errorf("no live 1-ForkCoherence witness: %v", props)
	}
	if mon.LiveWitnesses() != len(live) {
		t.Errorf("LiveWitnesses=%d, callback saw %d", mon.LiveWitnesses(), len(live))
	}
	for _, w := range live {
		if w.Detail == "" || len(w.Ops) == 0 {
			t.Errorf("malformed live witness: %+v", w)
		}
	}
}

func TestMonitorStatsBounded(t *testing.T) {
	// Retained compact records must stay bounded while reads grow 10x.
	retained := func(reads int) int {
		rec := history.NewRecorder(2, nil)
		mon := NewMonitor(MonitorConfig{Procs: 2, Table: rec.Table()})
		rec.SetSink(mon)
		rec.SetRetain(false)
		c := chainN(8)
		recordChain(rec, c)
		for i := 0; i < reads; i++ {
			rec.Read(i%2, c[:2+i%7])
		}
		st := mon.Stats()
		if st.Reads != reads {
			t.Fatalf("consumed %d reads, want %d", st.Reads, reads)
		}
		return st.Retained
	}
	small, big := retained(500), retained(5000)
	if big > small+8 {
		t.Errorf("retained state grew with read count: %d @500 reads vs %d @5000", small, big)
	}
}
