package experiments

import (
	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/refine"
	"repro/internal/tape"
)

// Figure1 replays the transition-system path of Figure 1: from ξ0,
// append(b1)/true, a rejected append(b3)/false (b3 ∉ B′), read()/b0⌢b1,
// append(b2)/true, read()/b0⌢b1⌢b2 — checking every output against the
// BT-ADT machine (Definition 3.1) and the admissibility of the whole
// word (Definition 2.3).
func Figure1(seed uint64) *Result {
	res := &Result{ID: "Figure 1", Title: "BT-ADT transition-system path", OK: true}
	_ = seed

	// P rejects blocks whose payload starts with 0xFF (the b3 ∉ B′ of
	// the figure).
	p := core.PredicateFunc("figure1", func(b *core.Block) bool {
		return b.IsGenesis() || len(b.Payload) == 0 || b.Payload[0] != 0xFF
	})
	m := adt.NewBTMachine(core.LongestChain{}, p)

	b1 := core.NewBlock(core.GenesisID, 1, 1, 1, []byte{1})
	b3 := core.NewBlock(core.GenesisID, 1, 3, 3, []byte{0xFF})
	b2 := &core.Block{ID: "b2-any", Weight: 1, Payload: []byte{2}} // re-chained by append

	word := []adt.Input{
		adt.AppendInput{B: b1},
		adt.AppendInput{B: b3},
		adt.ReadInput{},
		adt.AppendInput{B: b2},
		adt.ReadInput{},
	}
	states, outs := m.Run(word)
	want := []string{"true", "false", "", "true", ""}
	for i, in := range word {
		got := outs[i].Encode()
		res.addf("ξ%d --%s/%s--> ξ%d", i, in.Key(), got, i+1)
		if want[i] != "" && got != want[i] {
			res.OK = false
			res.notef("step %d: output %q, want %q", i, got, want[i])
		}
	}
	// The two reads must return the growing selected chain.
	read1 := outs[2].(adt.ChainOutput).Chain
	read2 := outs[4].(adt.ChainOutput).Chain
	if read1.Height() != 1 || read2.Height() != 2 || !read1.Prefix(read2) {
		res.OK = false
		res.notef("reads do not grow along the selected chain: %s then %s", read1, read2)
	}
	// Replaying the operations as a sequential history must be
	// admissible (the word belongs to L(BT-ADT)).
	var seq []adt.Operation[adt.BTState]
	for i, in := range word {
		seq = append(seq, adt.Operation[adt.BTState]{In: in, Out: outs[i]})
	}
	if ok, at, why := m.Admissible(seq); !ok {
		res.OK = false
		res.notef("word not in L(BT-ADT) at %d: %s", at, why)
	}
	res.addf("final state: %s", states[len(states)-1].Tree)
	res.addf("L(BT-ADT) membership: verified by replay")
	return res
}

// Figure5 renders the ΘF abstract state of Figure 5: the infinite K
// array (empty sets initially, filling as tokens are consumed) and the
// per-merit pseudorandom tapes.
func Figure5(seed uint64) *Result {
	res := &Result{ID: "Figure 5", Title: "ΘF abstract state", OK: true}
	set := tape.NewSet(nil, seed)
	a1, a2 := tape.Merit(0.7), tape.Merit(0.2)
	for _, a := range []tape.Merit{a1, a2} {
		t := set.Tape(a)
		row := make([]string, 10)
		for i := range row {
			row[i] = t.Peek(i).String()
		}
		res.addf("tape_α%g: %v ...", float64(a), row)
	}
	// Consume two tokens through a k=2 frugal oracle and display K.
	orc := oracle.NewFrugal(2, nil, core.AlwaysValid{}, seed)
	g := core.Genesis()
	var consumed int
	for i := 0; i < 64 && consumed < 3; i++ {
		if b, ok := orc.GetToken(a1, g, 1, i, []byte{byte(i)}); ok {
			if _, ok2 := orc.ConsumeToken(b); ok2 {
				consumed++
			}
		}
	}
	k := orc.K(g.ID)
	res.addf("K[b0] after mining: %d elements (k=2 bound)", len(k))
	if len(k) != 2 {
		res.OK = false
		res.notef("frugal k=2 consumed %d tokens for b0, want exactly 2", len(k))
	}
	if consumed != 2 {
		res.OK = false
		res.notef("oracle admitted %d consumes, want 2", consumed)
	}
	return res
}

// Figure6 replays the Θ-ADT transition path of Figure 6 on the machine
// instance: getToken until a token is granted, then consumeToken, with
// every output checked by replay (the word must be in L(Θ-ADT)).
func Figure6(seed uint64) *Result {
	res := &Result{ID: "Figure 6", Title: "Θ-ADT transition path", OK: true}
	m := oracle.NewThetaMachine(2, nil, core.AlwaysValid{}, seed)
	g := core.Genesis()
	in := oracle.GetTokenInput{Merit: 0.5, Parent: g, Creator: 1, Round: 0, Payload: []byte{1}}

	st := m.Initial()
	var out adt.Output
	var seq []adt.Operation[oracle.ThetaState]
	var granted *core.Block
	for i := 0; i < 64; i++ {
		st, out = m.Step(st, in)
		seq = append(seq, adt.Operation[oracle.ThetaState]{In: in, Out: out})
		res.addf("getToken(obj1, objk)/%s", out.Encode())
		if tok, ok := out.(oracle.TokenOutput); ok && tok.Block != nil {
			granted = tok.Block
			break
		}
	}
	if granted == nil {
		res.OK = false
		res.notef("no token granted in 64 attempts (p=0.5)")
		return res
	}
	cin := oracle.ConsumeTokenInput{Block: granted}
	st, out = m.Step(st, cin)
	seq = append(seq, adt.Operation[oracle.ThetaState]{In: cin, Out: out})
	res.addf("consumeToken(obj^tkn1_k)/%s", out.Encode())
	if len(st.K[g.ID]) != 1 {
		res.OK = false
		res.notef("K[b0] has %d elements after consume, want 1", len(st.K[g.ID]))
	}
	if ok, at, why := m.Admissible(seq); !ok {
		res.OK = false
		res.notef("word not in L(Θ-ADT) at %d: %s", at, why)
	}
	res.addf("L(Θ-ADT) membership: verified by replay")
	return res
}

// Figure7 exercises the refined append() of Definition 3.7 / Figure 7:
// an R(BT-ADT, ΘF) object performs append (getToken* ∘ consumeToken ∘
// concatenation, atomically) and read, and the resulting chain must be
// b0⌢b1 with the token recorded.
func Figure7(seed uint64) *Result {
	res := &Result{ID: "Figure 7", Title: "refined append() path", OK: true}
	orc := oracle.NewFrugal(1, nil, core.WellFormed{}, seed)
	bt := refine.New(refine.Config{Oracle: orc})

	before := bt.Read(0)
	res.addf("read()/%s", before)
	b, ok := bt.Append(0, 0.5, 1, []byte("block-k"))
	res.addf("append(b_k)/%v  (validated as %s)", ok, b)
	after := bt.Read(0)
	res.addf("read()/%s", after)

	if !ok || b == nil {
		res.OK = false
		res.notef("refined append failed")
		return res
	}
	if before.Height() != 0 || after.Height() != 1 || after.Head().ID != b.ID {
		res.OK = false
		res.notef("read sequence wrong: %s then %s", before, after)
	}
	if b.Token != oracle.TokenName(core.GenesisID) {
		res.OK = false
		res.notef("validated block does not carry tkn(b0): %q", b.Token)
	}
	if got := len(orc.K(core.GenesisID)); got != 1 {
		res.OK = false
		res.notef("K[b0] has %d elements, want 1", got)
	}
	// A second append on a k=1 oracle must fork-fail at b0 but chain
	// to b1 instead (the selected head moved), so it succeeds there.
	b2, ok2 := bt.Append(1, 0.5, 2, []byte("block-k2"))
	res.addf("append(b_k2)/%v  (chained to %s)", ok2, b2.Parent.Short())
	if !ok2 || b2.Parent != b.ID {
		res.OK = false
		res.notef("second append should extend b1 under k=1")
	}
	return res
}
