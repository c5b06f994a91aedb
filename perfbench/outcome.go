package main

import (
	"repro/internal/core"
	"repro/internal/history"
)

// commit is one block on the final selected chain: when its append
// responded and when the last correct replica recorded its update, both
// on the history's own clock (virtual ticks in simulation, microseconds
// since the deployment started in a live run).
type commit struct {
	Block      core.BlockID
	AppendRsp  int64
	LastUpdate int64
}

// outcome is what the benchmark reads back from a recorded history to
// judge a run: the commits it measures latency over, and the
// operations that count as failed.
type outcome struct {
	Commits []commit
	// Uncommitted counts successful appends whose block some correct
	// replica never applied.
	Uncommitted int
	// Failed counts pending operations, appends that responded false,
	// reads that returned no chain, and the uncommitted appends.
	Failed int
	// Ops is the number of recorded operations (the attempted count).
	Ops int
}

// updateState tracks which correct replicas applied a block, as a
// bitset over process ids, and when the last of them did.
type updateState struct {
	procs []uint64
	count int
	last  int64
}

// finalChain is the chain the last read of the first correct process
// returned: the selected chain after the run converged (every workload
// ends with read batches taken after delivery has quiesced).
func finalChain(h *history.History) core.Chain {
	for i := len(h.Ops) - 1; i >= 0; i-- {
		op := h.Ops[i]
		if op.Kind == history.OpRead && !op.Pending && h.IsCorrect(op.Proc) {
			return op.Chain()
		}
	}
	return nil
}

// analyze computes the outcome of a recorded history.
func analyze(h *history.History) outcome {
	correct := 0
	for p := 0; p < h.Procs; p++ {
		if h.IsCorrect(p) {
			correct++
		}
	}
	words := (h.Procs + 63) / 64
	upd := make(map[core.BlockID]*updateState)
	for i := range h.Comm {
		e := &h.Comm[i]
		if e.Kind != history.EvUpdate || !h.IsCorrect(e.Proc) {
			continue
		}
		st := upd[e.Block]
		if st == nil {
			st = &updateState{procs: make([]uint64, words)}
			upd[e.Block] = st
		}
		w, bit := e.Proc/64, uint64(1)<<(e.Proc%64)
		if st.procs[w]&bit == 0 {
			st.procs[w] |= bit
			st.count++
		}
		st.last = max(st.last, e.Time)
	}

	out := outcome{Ops: len(h.Ops)}
	appended := make(map[core.BlockID]*history.Op)
	for _, op := range h.Ops {
		switch {
		case op.Pending:
			out.Failed++
		case op.Kind == history.OpAppend && !op.OK:
			out.Failed++
		case op.Kind == history.OpAppend:
			appended[op.Block.ID] = op
			if st := upd[op.Block.ID]; st == nil || st.count < correct {
				out.Uncommitted++
				out.Failed++
			}
		case op.Head == "":
			out.Failed++
		}
	}
	for _, b := range finalChain(h) {
		op := appended[b.ID]
		st := upd[b.ID]
		if op == nil || st == nil || st.count < correct {
			continue
		}
		out.Commits = append(out.Commits, commit{Block: b.ID, AppendRsp: op.RspTime, LastUpdate: st.last})
	}
	return out
}
