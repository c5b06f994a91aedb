package experiments

import (
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
)

// paperBlocks builds the block universe of Figures 2–4: a straight chain
// c1⌢c2⌢c3⌢c4 for Figure 2 and the two-branch tree of Figures 3–4,
//
//	b0 ── 1 ── 3 ── 5 ── 7
//	  └── 2 ── 4 ── 6 ── 8
//
// with the paper's integer labels mapped to content-hashed blocks
// (labels 7 and 8 extend the figure's branches so the finite prefix has
// a future for every read the checkers quantify over; the paper's
// histories are infinite).
type paperBlocks struct {
	chain  []*core.Block         // c1..c4 (index 0 = c1)
	br     map[int]*core.Block   // 1..6 by paper label
	chains map[string]core.Chain // named chains for readability
}

func buildPaperBlocks() *paperBlocks {
	pb := &paperBlocks{br: map[int]*core.Block{}, chains: map[string]core.Chain{}}
	g := core.Genesis()

	// Figure 2 chain.
	parent := g
	for i := 1; i <= 4; i++ {
		b := core.NewBlock(parent.ID, parent.Height+1, 0, i, []byte{byte(i)})
		pb.chain = append(pb.chain, b)
		parent = b
	}

	// Figures 3-4 branches: odd branch 1-3-5 from b0, even branch
	// 2-4-6 from b0.
	pb.br[1] = core.NewBlock(g.ID, 1, 1, 101, []byte{1})
	pb.br[3] = core.NewBlock(pb.br[1].ID, 2, 1, 103, []byte{3})
	pb.br[5] = core.NewBlock(pb.br[3].ID, 3, 1, 105, []byte{5})
	pb.br[7] = core.NewBlock(pb.br[5].ID, 4, 1, 107, []byte{7})
	pb.br[2] = core.NewBlock(g.ID, 1, 2, 102, []byte{2})
	pb.br[4] = core.NewBlock(pb.br[2].ID, 2, 2, 104, []byte{4})
	pb.br[6] = core.NewBlock(pb.br[4].ID, 3, 2, 106, []byte{6})
	pb.br[8] = core.NewBlock(pb.br[6].ID, 4, 2, 108, []byte{8})

	gc := core.GenesisChain()
	pb.chains["c1"] = gc.Append(pb.chain[0])
	pb.chains["c12"] = pb.chains["c1"].Append(pb.chain[1])
	pb.chains["c123"] = pb.chains["c12"].Append(pb.chain[2])
	pb.chains["c1234"] = pb.chains["c123"].Append(pb.chain[3])
	pb.chains["1"] = gc.Append(pb.br[1])
	pb.chains["13"] = pb.chains["1"].Append(pb.br[3])
	pb.chains["135"] = pb.chains["13"].Append(pb.br[5])
	pb.chains["1357"] = pb.chains["135"].Append(pb.br[7])
	pb.chains["2"] = gc.Append(pb.br[2])
	pb.chains["24"] = pb.chains["2"].Append(pb.br[4])
	pb.chains["246"] = pb.chains["24"].Append(pb.br[6])
	pb.chains["2468"] = pb.chains["246"].Append(pb.br[8])
	return pb
}

// appendAll records successful append operations for every block that
// will appear in reads, so Block Validity has its witnesses.
func appendAll(rec *history.Recorder, blocks ...*core.Block) {
	for _, b := range blocks {
		rec.Append(b.Creator, b, true)
	}
}

// Figure2 builds the Figure 2 history — two processes reading a single
// growing chain — and checks that it satisfies BT Strong Consistency
// (and hence, by Theorem 3.1, BT Eventual Consistency).
func Figure2(seed uint64) *Result {
	_ = seed
	res := &Result{ID: "Figure 2", Title: "history satisfying SC", OK: true}
	pb := buildPaperBlocks()
	rec := history.NewRecorder(2, nil)
	appendAll(rec, pb.chain...)

	// Interleaved reads as in the figure (score = length, f = longest
	// chain): process i sees l=2,3,4; process j sees l=1,2,4.
	rec.Read(1, pb.chains["c1"])   // j: l=1
	rec.Read(0, pb.chains["c12"])  // i: l=2
	rec.Read(1, pb.chains["c12"])  // j: l=2
	rec.Read(0, pb.chains["c123"]) // i: l=3  ← the boxed read, l=3
	rec.Read(1, pb.chains["c1234"])
	rec.Read(0, pb.chains["c1234"])
	h := rec.Snapshot()

	chk := consistency.NewChecker(core.LengthScore{}, nil)
	sc, ec := chk.Classify(h)
	res.addf("history: %s", h)
	for _, r := range sc.Reports {
		res.addf("%s", r)
	}
	res.addf("verdicts: %s ; %s", sc, ec)
	if !sc.OK || !ec.OK {
		res.OK = false
		res.notef("Figure 2 history must satisfy SC and EC")
	}
	return res
}

// Figure3 builds the Figure 3 history — forked tree, processes
// temporarily on different branches, converging to b0⌢1⌢3⌢5 — and
// checks EC holds while SC does not (the separating example of
// Theorem 3.1).
func Figure3(seed uint64) *Result {
	_ = seed
	res := &Result{ID: "Figure 3", Title: "history satisfying EC but not SC", OK: true}
	pb := buildPaperBlocks()
	rec := history.NewRecorder(2, nil)
	appendAll(rec, pb.br[1], pb.br[2], pb.br[3], pb.br[4], pb.br[5], pb.br[7])

	rec.Read(1, pb.chains["1"])    // j: b0⌢1
	rec.Read(0, pb.chains["24"])   // i: b0⌢2⌢4  — incomparable with j's
	rec.Read(1, pb.chains["13"])   // j: b0⌢1⌢3
	rec.Read(0, pb.chains["13"])   // i switches to the odd branch
	rec.Read(1, pb.chains["135"])  // j: l=3
	rec.Read(0, pb.chains["135"])  // i: l=3 — both converge
	rec.Read(1, pb.chains["1357"]) // growth continues on the adopted branch
	rec.Read(0, pb.chains["1357"])
	h := rec.Snapshot()

	chk := consistency.NewChecker(core.LengthScore{}, nil)
	sc, ec := chk.Classify(h)
	res.addf("history: %s", h)
	res.addf("first read at j: %s ; first read at i: %s (incomparable)", pb.chains["1"], pb.chains["24"])
	res.addf("verdicts: %s ; %s", sc, ec)
	for _, r := range sc.Reports {
		res.addf("%s", r)
	}
	if sc.OK {
		res.OK = false
		res.notef("Figure 3 history must violate Strong Prefix")
	}
	if !ec.OK {
		res.OK = false
		res.notef("Figure 3 history must satisfy EC")
	}
	return res
}

// Figure4 builds the Figure 4 history — the two processes stay on
// diverging branches forever — and checks that both criteria fail.
func Figure4(seed uint64) *Result {
	_ = seed
	res := &Result{ID: "Figure 4", Title: "history violating both criteria", OK: true}
	pb := buildPaperBlocks()
	rec := history.NewRecorder(2, nil)
	appendAll(rec, pb.br[1], pb.br[2], pb.br[3], pb.br[4], pb.br[5], pb.br[6], pb.br[7], pb.br[8])

	rec.Read(1, pb.chains["1"])
	rec.Read(0, pb.chains["24"])
	rec.Read(1, pb.chains["13"])
	rec.Read(0, pb.chains["24"])
	rec.Read(1, pb.chains["135"])
	rec.Read(0, pb.chains["246"])  // i stays on the even branch
	rec.Read(1, pb.chains["1357"]) // both branches keep growing (EGT holds)
	rec.Read(0, pb.chains["2468"]) // but they never share a prefix (EP fails)
	h := rec.Snapshot()

	chk := consistency.NewChecker(core.LengthScore{}, nil)
	sc, ec := chk.Classify(h)
	res.addf("history: %s", h)
	res.addf("final reads: i=%s, j=%s (mcps=0)", pb.chains["2468"], pb.chains["1357"])
	res.addf("verdicts: %s ; %s", sc, ec)
	if sc.OK || ec.OK {
		res.OK = false
		res.notef("Figure 4 history must violate both SC and EC")
	}
	if egt := ec.Report("EverGrowingTree"); !egt.OK {
		res.OK = false
		res.notef("Ever Growing Tree should hold in Figure 4 (both branches keep growing)")
	}
	ep := ec.Report("EventualPrefix")
	if ep.OK {
		res.OK = false
		res.notef("Eventual Prefix must be the violated property")
	} else {
		res.addf("%s", ep)
	}
	return res
}
