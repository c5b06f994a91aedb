package consistency

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// fuzzBuild interprets a byte string as a deterministic op stream over
// `procs` sequential processes: chain extensions, forks, explicit and
// interned reads, stale reads, duplicate and failed appends, forged
// blocks, mid-stream fault declarations, permanently-pending appends,
// and split operations — an append or interned read whose response is
// recorded only when its process acts next (or at the end), so other
// processes' operations overlap it. Without split actions every
// completed operation is atomic (invoke+respond adjacent).
func fuzzBuild(rec *history.Recorder, procs int, data []byte) {
	chains := make([]core.Chain, procs)
	for p := range chains {
		chains[p] = core.GenesisChain()
	}
	var all []*core.Block // every appended block, for stale/dup actions
	hasRead := make([]bool, procs)
	faulty := make([]bool, procs)
	open := make([]func(), procs) // the deferred response of p's split op
	settle := func(p int) {
		if respond := open[p]; respond != nil {
			open[p] = nil
			respond()
		}
	}
	seq := 0

	mint := func(parent *core.Block, creator int) *core.Block {
		seq++
		b := core.NewBlock(parent.ID, parent.Height+1, creator, seq, []byte{byte(seq), byte(seq >> 8)})
		if seq%5 == 0 {
			// Shared token: k-Fork groups beyond the same-parent rule.
			b = b.WithToken("tkn(shared)")
		}
		rec.InternBlock(b)
		return b
	}

	for _, a := range data {
		p := int(a>>3) % procs
		settle(p)
		switch a % 8 {
		case 0, 1: // extend p's chain with a successful append
			b := mint(chains[p].Head(), p)
			chains[p] = chains[p].Append(b)
			all = append(all, b)
			if a>>6 == 3 { // split: respond when p acts next
				op := rec.InvokeAppend(p, b)
				open[p] = func() { rec.RespondAppend(op, true, nil) }
				break
			}
			rec.Append(p, b, true)
		case 2: // fork: branch p's chain at half height
			cut := len(chains[p])/2 + 1
			forked := chains[p][:cut].Clone()
			b := mint(forked.Head(), p)
			chains[p] = forked.Append(b)
			rec.Append(p, b, true)
			all = append(all, b)
		case 3: // explicit-chain read of p's current chain
			rec.Read(p, chains[p].Clone())
			hasRead[p] = true
		case 4: // interned read of p's current head
			hasRead[p] = true
			if a>>6 == 3 { // split: respond when p acts next
				op, head := rec.InvokeRead(p), chains[p].Head()
				open[p] = func() { rec.RespondReadHead(op, head) }
				break
			}
			rec.ReadHead(p, chains[p].Head())
		case 5: // stale read or duplicate append of an old block
			if len(all) == 0 {
				rec.Read(p, core.GenesisChain())
				hasRead[p] = true
				break
			}
			old := all[int(a>>3)%len(all)]
			if a>>6 == 0 {
				rec.Append(p, old, true) // duplicate successful append
			} else {
				c := rec.Table().ChainTo(old.ID)
				rec.Read(p, c) // out-of-order (stale) read
				hasRead[p] = true
			}
		case 6: // forged block: interned, read, never appended — or a
			// failed append that likewise must not count
			b := mint(chains[p].Head(), p)
			if a>>6 == 0 {
				rec.Append(p, b, false) // failed append
			}
			rec.Read(p, chains[p].Clone().Append(b))
			hasRead[p] = true
		case 7: // mid-stream fault (only before p's first read, per the
			// sink contract) or a permanently-pending append
			if !hasRead[p] && !faulty[p] && a>>6 == 1 {
				faulty[p] = true
				rec.MarkFaulty(p)
				break
			}
			b := mint(chains[p].Head(), p)
			rec.InvokeAppend(p, b) // never responded
		}
	}
	for p := range open {
		settle(p)
	}
}

// isAtomic reports whether every completed operation of h has its
// response immediately after its invocation — the regime in which the
// Monitor reproduces the batch oracle byte for byte.
func isAtomic(h *history.History) bool {
	for _, op := range h.Ops {
		if !op.Pending && op.RspIndex != op.InvIndex+1 {
			return false
		}
	}
	return true
}

// verdictOKs flattens a verdict to its per-property OK flags.
func verdictOKs(v *Verdict) string {
	s := fmt.Sprintf("%s ok=%v", v.Criterion, v.OK)
	for _, r := range v.Reports {
		s += fmt.Sprintf(" %s=%v", r.Property, r.OK)
	}
	return s
}

// FuzzMonitorEquivalence drives randomized op streams through the
// streaming Monitor (as direct sink and through small sealed segments)
// and through Classify's replay, and checks both against the batch
// oracle. Classify must equal the streamed Finalize byte for byte on
// every stream. Against the oracle, atomic streams must match exactly —
// OK flags, Checked counts, violation strings, witness ops and blocks —
// while streams with overlapping operations must match per-property OK
// flags (witness choice and Checked counts may differ there).
func FuzzMonitorEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 8, 11, 2, 3, 19, 4})
	f.Add([]byte{0, 0, 2, 3, 11, 3, 2, 11, 3, 5, 45, 5, 6, 70, 6, 3})
	f.Add([]byte{7, 71, 15, 0, 2, 3, 3, 3, 7, 7, 13, 5, 101, 6, 66, 4, 12, 20, 28})
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57, 3, 11, 19, 27, 2, 10, 18, 26, 4, 12})
	f.Add([]byte{0, 0, 196, 204, 212, 3, 11, 19, 200, 208, 2, 192, 4, 12, 20, 196, 10, 204, 3, 11, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const procs = 3
		horizon := 0
		if len(data) > 0 {
			horizon = int(data[0]) % 5 // 0 = batch default
		}
		for _, segSize := range []int{0, 7} {
			rec := history.NewRecorder(procs, nil)
			mon := NewMonitor(MonitorConfig{Procs: procs, Horizon: horizon, Table: rec.Table()})
			var seg *history.SegmentSink
			if segSize > 0 {
				seg = history.NewSegmentSink(segSize, mon.ConsumeSegment)
				seg.OnFaulty = mon.Faulty
				rec.SetSink(seg)
			} else {
				rec.SetSink(mon)
			}
			fuzzBuild(rec, procs, data)
			h := rec.Snapshot()
			if seg != nil {
				seg.Seal()
			}
			for _, op := range rec.PendingOps() {
				mon.OpPending(op)
			}
			msc, mec := mon.Finalize()

			chk := NewChecker(nil, nil)
			chk.Horizon = horizon
			csc, cec := chk.Classify(h)
			if got, want := verdictDump(csc)+verdictDump(cec), verdictDump(msc)+verdictDump(mec); got != want {
				t.Errorf("seg=%d Classify differs from the streamed monitor:\n--- stream ---\n%s--- Classify ---\n%s", segSize, want, got)
			}

			bsc, bec := oracleClassify(chk, h)
			dump := verdictDump
			if !isAtomic(h) {
				dump = verdictOKs
			}
			if got, want := dump(msc), dump(bsc); got != want {
				t.Errorf("seg=%d SC mismatch:\n--- batch ---\n%s--- stream ---\n%s", segSize, want, got)
			}
			if got, want := dump(mec), dump(bec); got != want {
				t.Errorf("seg=%d EC mismatch:\n--- batch ---\n%s--- stream ---\n%s", segSize, want, got)
			}
			for _, k := range []int{1, 2} {
				if got, want := reportDump(mon.KForkReport(k)), reportDump(oracleKFork(h, k)); got != want {
					t.Errorf("seg=%d KFork(%d) mismatch:\n--- batch ---\n%s--- stream ---\n%s", segSize, k, want, got)
				}
			}
		}
	})
}
