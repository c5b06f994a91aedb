package consistency

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
)

// The batch oracle: an independent implementation of the §3 properties
// that the Monitor (and so Classify) is diff-tested against. It
// analyses the whole history at once — the read list, one score per
// distinct chain, the earliest-append index per block, the liveness
// tail window — instead of consuming a stream. Its Strong Prefix comes
// in two forms: the naive pairwise O(r²) check, and the sorted
// adjacent-pair check whose reports the Monitor reproduces byte for
// byte on atomic histories.

// batchOracle is the batch analysis of one (history, checker) pair.
type batchOracle struct {
	score core.Score
	pred  core.Predicate
	h     *history.History
	// reads is h.Reads() (completed reads of correct processes).
	reads []*history.Op
	// scores[i] is the score of reads[i], computed once per distinct
	// chain through scoreByChain.
	scores       []int
	scoreByChain map[chainKey]int
	// tailStart indexes the liveness tail window: reads[tailStart:].
	tailStart int
	// appendInv maps block ID → the operation with the earliest
	// append(b) invocation (pending and failed appends included).
	appendInv map[core.BlockID]*history.Op
	// facts caches the Block Validity scan per distinct chain.
	facts map[chainKey]*chainFact
}

// chainFact caches the Block Validity scan of one distinct chain.
type chainFact struct {
	clean        bool
	maxAppendInv int
	nonGenesis   int
}

// oracleWindow is the liveness tail-window size the Checker uses.
func oracleWindow(c *Checker, h *history.History) int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return max(2, h.Procs)
}

func newBatchOracle(c *Checker, h *history.History) *batchOracle {
	a := &batchOracle{
		score:        c.Score,
		pred:         c.P,
		h:            h,
		reads:        h.Reads(),
		scoreByChain: make(map[chainKey]int),
		appendInv:    make(map[core.BlockID]*history.Op),
		facts:        make(map[chainKey]*chainFact),
	}
	a.scores = make([]int, len(a.reads))
	for i, r := range a.reads {
		a.scores[i] = a.scoreOf(r)
	}
	for _, op := range h.Ops {
		if op.Kind == history.OpAppend && op.Block != nil {
			if prev, ok := a.appendInv[op.Block.ID]; !ok || op.InvIndex < prev.InvIndex {
				a.appendInv[op.Block.ID] = op
			}
		}
	}
	a.tailStart = max(0, len(a.reads)-oracleWindow(c, h))
	return a
}

// oracleClassify is the batch Classify: the SC and EC verdicts with the
// sorted Strong Prefix and shared property reports.
func oracleClassify(c *Checker, h *history.History) (sc, ec *Verdict) {
	a := newBatchOracle(c, h)
	bv, lmr, egt := a.blockValidity(), a.localMonotonicRead(), a.everGrowingTree()
	sc = verdictOf("SC", bv, lmr, a.strongPrefixSorted(), egt)
	ec = verdictOf("EC", bv, lmr, egt, a.eventualPrefix())
	return sc, ec
}

func (a *batchOracle) scoreOf(op *history.Op) int {
	k := keyOf(op)
	if s, ok := a.scoreByChain[k]; ok {
		return s
	}
	s := a.score.Of(op.Chain())
	a.scoreByChain[k] = s
	return s
}

func (a *batchOracle) factOf(op *history.Op) *chainFact {
	k := keyOf(op)
	if f, ok := a.facts[k]; ok {
		return f
	}
	f := &chainFact{clean: true, maxAppendInv: -1}
	for _, b := range op.Chain() {
		if b.IsGenesis() {
			continue
		}
		f.nonGenesis++
		if !a.pred.Valid(b) {
			f.clean = false
			continue
		}
		ap, ok := a.appendInv[b.ID]
		if !ok {
			f.clean = false
			continue
		}
		if ap.InvIndex > f.maxAppendInv {
			f.maxAppendInv = ap.InvIndex
		}
	}
	a.facts[k] = f
	return f
}

func (a *batchOracle) blockValidity() *Report {
	rep := &Report{Property: "BlockValidity", OK: true}
	for _, r := range a.reads {
		f := a.factOf(r)
		if f.clean && f.maxAppendInv < r.RspIndex {
			rep.Checked += f.nonGenesis
			continue
		}
		for _, b := range r.Chain() {
			if b.IsGenesis() {
				continue
			}
			rep.Checked++
			if !a.pred.Valid(b) {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s with P(b)=false", r, b.ID.Short())
				continue
			}
			ap, ok := a.appendInv[b.ID]
			if !ok {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s never passed to append()", r, b.ID.Short())
				continue
			}
			if ap.InvIndex >= r.RspIndex {
				rep.witness([]*history.Op{r, ap}, []core.BlockID{b.ID},
					"read %s returned block %s appended only later (inv %d ≥ rsp %d)",
					r, b.ID.Short(), ap.InvIndex, r.RspIndex)
			}
		}
	}
	return rep
}

func (a *batchOracle) localMonotonicRead() *Report {
	rep := &Report{Property: "LocalMonotonicRead", OK: true}
	for p := 0; p < a.h.Procs; p++ {
		if !a.h.IsCorrect(p) {
			continue
		}
		var prev *history.Op
		prevScore := 0
		for _, op := range a.h.ByProcess(p) {
			if op.Kind != history.OpRead {
				continue
			}
			s := a.scoreOf(op)
			if prev != nil {
				rep.Checked++
				if prevScore > s {
					rep.witness([]*history.Op{prev, op}, []core.BlockID{prev.Head, op.Head},
						"process %d: score dropped %d → %d (%s then %s)",
						p, prevScore, s, prev, op)
				}
			}
			prev, prevScore = op, s
		}
	}
	return rep
}

// strongPrefixPairwise is the naive O(r²) Strong Prefix: every pair of
// correct reads must be prefix-comparable.
func (a *batchOracle) strongPrefixPairwise() *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	reads := a.reads
	for i := 0; i < len(reads); i++ {
		for j := i + 1; j < len(reads); j++ {
			rep.Checked++
			if keyOf(reads[i]) == keyOf(reads[j]) {
				continue
			}
			if !reads[i].Chain().Comparable(reads[j].Chain()) {
				rep.witness([]*history.Op{reads[i], reads[j]}, []core.BlockID{reads[i].Head, reads[j].Head},
					"incomparable reads: %s vs %s", reads[i], reads[j])
				if len(rep.Violations) == MaxViolations {
					return rep
				}
			}
		}
	}
	return rep
}

// strongPrefixSorted sorts the reads by chain length (recording order
// as the tiebreak) and requires each chain to prefix the next one.
func (a *batchOracle) strongPrefixSorted() *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	reads := a.reads
	if len(reads) < 2 {
		return rep
	}
	idx := make([]int, len(reads))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		ix, iy := idx[x], idx[y]
		if reads[ix].ChainLen != reads[iy].ChainLen {
			return reads[ix].ChainLen < reads[iy].ChainLen
		}
		return ix < iy
	})
	for k := 1; k < len(idx); k++ {
		rep.Checked++
		prev, cur := reads[idx[k-1]], reads[idx[k]]
		if keyOf(prev) == keyOf(cur) {
			continue
		}
		if !prev.Chain().Prefix(cur.Chain()) {
			rep.witness([]*history.Op{prev, cur}, []core.BlockID{prev.Head, cur.Head},
				"incomparable reads: %s vs %s", prev, cur)
		}
	}
	return rep
}

func (a *batchOracle) everGrowingTree() *Report {
	rep := &Report{Property: "EverGrowingTree", OK: true}
	reads := a.reads
	for i, r := range reads {
		rep.Checked++
		s := a.scores[i]
		maxT := -1
		var stale *history.Op
		for j := a.tailStart; j < len(reads); j++ {
			t := reads[j]
			if !r.Before(t) {
				continue
			}
			st := a.scores[j]
			if st > maxT {
				maxT = st
			}
			if st <= s && stale == nil {
				stale = t
			}
		}
		if stale != nil && maxT > s {
			rep.witness([]*history.Op{r, stale}, []core.BlockID{r.Head, stale.Head},
				"stagnation persists after %s: final-window read %s has score ≤ %d while the window grew to %d",
				r, stale, s, maxT)
			if len(rep.Violations) == MaxViolations {
				return rep
			}
		}
	}
	return rep
}

// eventualPrefix computes the window-pair MCPS once; without a pair
// diverging below both its chains' scores it only counts facts,
// otherwise it replays the exact per-read enumeration.
func (a *batchOracle) eventualPrefix() *Report {
	rep := &Report{Property: "EventualPrefix", OK: true}
	reads := a.reads
	tail := reads[a.tailStart:]

	divergent := false
	mcps := make([][]int, len(tail))
	for x := range tail {
		mcps[x] = make([]int, len(tail))
	}
	for x := 0; x < len(tail); x++ {
		sx := a.scores[a.tailStart+x]
		for y := x + 1; y < len(tail); y++ {
			sy := a.scores[a.tailStart+y]
			var m int
			if keyOf(tail[x]) == keyOf(tail[y]) {
				m = sx
			} else {
				m = core.MCPS(a.score, tail[x].Chain(), tail[y].Chain())
			}
			mcps[x][y] = m
			if m < sx && m < sy {
				divergent = true
			}
		}
	}

	if !divergent {
		for _, r := range reads {
			k := 0
			for j := a.tailStart; j < len(reads); j++ {
				if r.Before(reads[j]) {
					k++
				}
			}
			rep.Checked += k * (k - 1) / 2
		}
		return rep
	}

	for i, r := range reads {
		s := a.scores[i]
		var after []int
		for j := 0; j < len(tail); j++ {
			if r.Before(tail[j]) {
				after = append(after, j)
			}
		}
		for x := 0; x < len(after); x++ {
			for y := x + 1; y < len(after); y++ {
				rep.Checked++
				ax, ay := after[x], after[y]
				m := mcps[ax][ay]
				bound := min(s, a.scores[a.tailStart+ax], a.scores[a.tailStart+ay])
				if m < bound {
					rep.witness([]*history.Op{r, tail[ax], tail[ay]},
						[]core.BlockID{tail[ax].Head, tail[ay].Head},
						"after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						r, s, tail[ax], tail[ay], m, bound)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
		}
	}
	return rep
}

// oracleKFork is the batch k-Fork Coherence: successful appends grouped
// by consumed token (by parent when the block carries none).
func oracleKFork(h *history.History, k int) *Report {
	rep := &Report{Property: fmt.Sprintf("%d-ForkCoherence", k), OK: true}
	byToken := make(map[string][]*history.Op)
	for _, op := range h.SuccessfulAppends() {
		if op.Block == nil {
			continue
		}
		key := op.Block.Token
		if key == "" {
			key = "parent:" + string(op.Block.Parent)
		}
		byToken[key] = append(byToken[key], op)
	}
	toks := make([]string, 0, len(byToken))
	for tok := range byToken {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		ops := byToken[tok]
		rep.Checked++
		if len(ops) > k {
			blocks := make([]core.BlockID, len(ops))
			for i, op := range ops {
				blocks[i] = op.Block.ID
			}
			rep.witness(ops, blocks,
				"token %q consumed by %d successful appends (k=%d): forks %s", tok, len(ops), k, shortIDs(blocks))
		}
	}
	return rep
}
