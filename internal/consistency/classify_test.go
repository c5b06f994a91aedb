package consistency

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// refEventualPrefix is the naive Eventual Prefix enumeration (every
// window pair re-scored per read), the reference Classify's Eventual
// Prefix is pinned against: same verdict, same fact count, same
// violation messages.
func refEventualPrefix(c *Checker, h *history.History) *Report {
	rep := &Report{Property: "EventualPrefix", OK: true}
	reads := h.Reads()
	w := oracleWindow(c, h)
	if w > len(reads) {
		w = len(reads)
	}
	tail := reads[len(reads)-w:]
	for _, r := range reads {
		s := c.Score.Of(r.Chain())
		var after []*history.Op
		for _, t := range tail {
			if r.Before(t) {
				after = append(after, t)
			}
		}
		for a := 0; a < len(after); a++ {
			for b := a + 1; b < len(after); b++ {
				rep.Checked++
				m := core.MCPS(c.Score, after[a].Chain(), after[b].Chain())
				bound := s
				if sa := c.Score.Of(after[a].Chain()); sa < bound {
					bound = sa
				}
				if sb := c.Score.Of(after[b].Chain()); sb < bound {
					bound = sb
				}
				if m < bound {
					rep.violate("after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						r, s, after[a], after[b], m, bound)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
		}
	}
	return rep
}

// randomHistory generates a history of reads over a two-branch tree:
// clean prefix-ordered runs and diverging runs both arise.
func randomHistory(rng *rand.Rand, procs, nReads int) *history.History {
	main := core.GenesisChain()
	for i := 1; i <= 10; i++ {
		h := main.Head()
		main = main.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	alt := main[:1+rng.Intn(4)].Clone()
	for i := 0; i < 8; i++ {
		h := alt.Head()
		alt = alt.Append(core.NewBlock(h.ID, h.Height+1, 1, 100+i, []byte{byte(i)}))
	}
	rec := history.NewRecorder(procs, nil)
	for _, b := range main[1:] {
		rec.Append(0, b, true)
	}
	for _, b := range alt[1:] {
		rec.Append(1, b, true)
	}
	for i := 0; i < nReads; i++ {
		src := main
		if rng.Intn(3) == 0 {
			src = alt
		}
		cut := 1 + rng.Intn(src.Len()-1)
		rec.Read(rng.Intn(procs), src[:cut+1])
	}
	return rec.Snapshot()
}

// TestEventualPrefixMatchesReference pins Classify's Eventual Prefix
// against the naive enumeration on randomized histories.
func TestEventualPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		h := randomHistory(rng, 2+rng.Intn(3), 3+rng.Intn(12))
		chk := NewChecker(nil, nil)
		got := classified(chk, h, "EventualPrefix")
		want := refEventualPrefix(NewChecker(nil, nil), h)
		if got.OK != want.OK || got.Checked != want.Checked {
			t.Fatalf("trial %d: (ok=%v checked=%d) vs reference (ok=%v checked=%d)",
				trial, got.OK, got.Checked, want.OK, want.Checked)
		}
		if fmt.Sprint(got.Violations) != fmt.Sprint(want.Violations) {
			t.Fatalf("trial %d: violations diverged:\n got %v\nwant %v", trial, got.Violations, want.Violations)
		}
	}
}

// TestSortedStrongPrefixMatchesPairwise pins Classify's sorted Strong
// Prefix verdict against the pairwise oracle on the same randomized
// histories.
func TestSortedStrongPrefixMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := randomHistory(rng, 2+rng.Intn(3), 3+rng.Intn(12))
		chk := NewChecker(nil, nil)
		pairwise := newBatchOracle(chk, h).strongPrefixPairwise()
		if sorted := classified(chk, h, "StrongPrefix"); sorted.OK != pairwise.OK {
			t.Fatalf("trial %d: sorted verdict %v, pairwise %v", trial, sorted.OK, pairwise.OK)
		}
	}
}

// zeroScore is a degenerate (non-strictly-monotonic) score: every chain
// scores 0. Classify's sorted Strong Prefix must still agree with the
// pairwise oracle under it — the sort key is chain length, not score.
type zeroScore struct{}

func (zeroScore) Of(core.Chain) int { return 0 }
func (zeroScore) Name() string      { return "zero" }

func TestSortedStrongPrefixDegenerateScore(t *testing.T) {
	chain := core.GenesisChain()
	h := chain.Head()
	chain = chain.Append(core.NewBlock(h.ID, h.Height+1, 0, 1, []byte{1}))

	// Comparable reads (G prefixes G⌢X), recorded longer-first so a
	// recording-order tiebreak alone would mis-order them.
	rec := history.NewRecorder(2, nil)
	rec.Append(0, chain[1], true)
	rec.Read(0, chain)
	rec.Read(1, chain[:1])
	hist := rec.Snapshot()

	chk := NewChecker(zeroScore{}, nil)
	if !newBatchOracle(chk, hist).strongPrefixPairwise().OK {
		t.Fatal("pairwise oracle rejected comparable reads")
	}
	if rep := classified(chk, hist, "StrongPrefix"); !rep.OK {
		t.Fatalf("sorted StrongPrefix false violation under degenerate score: %v", rep.Violations)
	}
}

// TestClassifySharesReports checks that the three properties common to
// SC and EC are one report each, shared by pointer between the two
// verdicts.
func TestClassifySharesReports(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHistory(rng, 3, 8)
	chk := NewChecker(nil, nil)
	sc, ec := chk.Classify(h)
	for _, p := range []string{"BlockValidity", "LocalMonotonicRead", "EverGrowingTree"} {
		if sc.Report(p) == nil || sc.Report(p) != ec.Report(p) {
			t.Fatalf("%s recomputed per criterion", p)
		}
	}
}

// TestCheckerCacheInvalidation: changing Score, P or Horizon between
// calls on the same history must be picked up — no state survives a
// Classify call.
func TestCheckerCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomHistory(rng, 2, 6)
	chk := NewChecker(core.LengthScore{}, nil)
	wide := classified(chk, h, "EventualPrefix").Checked // default window (≥ 2 reads)
	chk.Horizon = 1                                      // window of one read: no pairs at all
	if got := classified(chk, h, "EventualPrefix").Checked; got != 0 {
		t.Fatalf("horizon change not picked up: checked %d (default window had %d)", got, wide)
	}
	chk.Horizon = 0
	chk.Score = core.WeightScore{}
	// Weights are all 1 so the fact count matches the first run.
	if got := classified(chk, h, "EventualPrefix").Checked; got != wide {
		t.Fatalf("score change not picked up: checked %d, want %d", got, wide)
	}
	chk.P = core.RejectAll{}
	if classified(chk, h, "BlockValidity").OK {
		t.Fatal("predicate change not picked up")
	}
}

// BenchmarkAblationCheckerStrategy compares the pairwise O(r²) Strong
// Prefix oracle against Classify — the Monitor replay, whose Strong
// Prefix checks only adjacent pairs of the length-sorted reads — on a
// long prefix-ordered history (DESIGN.md ablation #4).
func BenchmarkAblationCheckerStrategy(b *testing.B) {
	chain := chainN(400)
	rec := history.NewRecorder(4, nil)
	recordChain(rec, chain)
	for i := 1; i <= 400; i++ {
		rec.Read(i%4, chain[:i+1])
	}
	h := rec.Snapshot()
	chk := NewChecker(nil, nil)

	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !newBatchOracle(chk, h).strongPrefixPairwise().OK {
				b.Fatal("violation on clean history")
			}
		}
	})
	b.Run("classify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sc, _ := chk.Classify(h); !sc.OK {
				b.Fatal("violation on clean history")
			}
		}
	})
}
