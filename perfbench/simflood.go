package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocols"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// floodShape sizes the sim-flood pipeline: n replicas over a FIFO
// synchronous simnet with delay uniform in [1, floodDelta] ticks, one
// block mined per tick for blocks ticks by miners taken round-robin
// from a seeded rotation, floodReadBatches read batches at every
// process plus a final batch after delivery quiesces, then one Classify
// of the whole history.
type floodShape struct{ n, blocks int }

// simFlood is the benchmark's shape: the SimScale/N64-b5000 pipeline.
var simFlood = floodShape{n: 64, blocks: 5000}

const (
	floodDelta       = 3
	floodReadBatches = 8
)

// pinnedSimFlood is the replay digest of sim-flood at the default seed.
const pinnedSimFlood = "d208470c52a7f29a"

// floodInputs are the generated inputs of one sim-flood run.
type floodInputs struct {
	simSeed uint64
	miners  []int // rotation order of the round-robin miners
}

func floodInputsOf(seed uint64, n int) floodInputs {
	rng := rand.New(rand.NewPCG(seed, 0x666c6f6f64))
	return floodInputs{simSeed: rng.Uint64(), miners: rng.Perm(n)}
}

// tickLatenciesMS converts commits timed in ticks into wall
// milliseconds: each commit's window, from the start of the append's
// tick to the end of the tick in which the last replica applied the
// block, times the mean wall time of a simulated tick. Every block on
// the final chain commits in the same window here (the largest delay),
// so per-tick marks would only sample tick-to-tick jitter; the mean
// tick keeps the figure as steady as the run's throughput.
func tickLatenciesMS(cs []commit, tick time.Duration) []float64 {
	out := make([]float64, 0, len(cs))
	for _, c := range cs {
		window := c.LastUpdate + 1 - c.AppendRsp
		out = append(out, float64(window)*float64(tick)/float64(time.Millisecond))
	}
	return out
}

// tracedSelector times selection from outside core (it keeps the
// head-only fast path by implementing core.HeadSelector).
type tracedSelector struct {
	inner  core.LongestChain
	clk    *layerClock
	leaves int64
}

func (s *tracedSelector) SelectHead(t *core.Tree) *core.Block {
	s.clk.enter(spSelect)
	s.leaves += int64(t.LeafCount())
	b := s.inner.SelectHead(t)
	s.clk.leave()
	return b
}

func (s *tracedSelector) Select(t *core.Tree) core.Chain {
	s.clk.enter(spSelect)
	s.leaves += int64(t.LeafCount())
	c := s.inner.Select(t)
	s.clk.leave()
	return c
}

func (s *tracedSelector) Name() string { return s.inner.Name() }

// tracedPredicate times block validation.
type tracedPredicate struct {
	inner core.Predicate
	clk   *layerClock
}

func (p *tracedPredicate) Valid(b *core.Block) bool {
	p.clk.enter(spValidate)
	ok := p.inner.Valid(b)
	p.clk.leave()
	return ok
}

func (p *tracedPredicate) Name() string { return p.inner.Name() }

// tracedNet decorates the replica's view of the network: it times each
// delivery handler and each send, and counts duplicate deliveries (an
// update for a block the receiving replica already holds).
type tracedNet struct {
	nw         *simnet.Network
	clk        *layerClock
	procs      []*replica.Process
	deliveries int64
	dups       int64
}

func (n *tracedNet) AddShardSafeHandler(p int, h simnet.Handler) {
	n.nw.AddShardSafeHandler(p, func(m simnet.Message) {
		n.clk.enter(spDeliver)
		n.deliveries++
		if um, ok := m.Payload.(replica.UpdateMsg); ok && m.From != p && n.procs[p].Tree().Has(um.Block.ID) {
			n.dups++
		}
		h(m)
		n.clk.leave()
	})
}

func (n *tracedNet) Send(from, to int, payload any) {
	n.clk.enter(spSend)
	n.nw.Send(from, to, payload)
	n.clk.leave()
}

func (n *tracedNet) Broadcast(from int, payload any) {
	n.clk.enter(spSend)
	n.nw.Broadcast(from, payload)
	n.clk.leave()
}

func (n *tracedNet) Down(p int) bool { return n.nw.Down(p) }

// runSimFlood runs one repetition of the benchmark's sim-flood shape.
func runSimFlood(seed uint64, traced, withDigest bool) *rep {
	return floodRep(simFlood, seed, traced, withDigest)
}

// floodRep runs one sim-flood repetition. The group is assembled
// exactly as replica.NewGroup does, so that the traced run can hand the
// replicas decorated selector, predicate and network views.
func floodRep(shape floodShape, seed uint64, traced, withDigest bool) *rep {
	in := floodInputsOf(seed, shape.n)
	r := &rep{}
	hs := startHeapSampler()
	t0 := time.Now()
	var clk *layerClock
	if traced {
		clk = newLayerClock(t0)
		r.spans = clk
	}
	clk.enter(spSetup)

	sim := simnet.NewSim(in.simSeed)
	nw := simnet.NewNetwork(sim, shape.n, simnet.Synchronous{Delta: floodDelta})
	rec := history.NewRecorder(shape.n, sim.Now)
	reg := replica.NewRegistry()
	var (
		view replica.Net    = nw
		sel  core.Selector  = core.LongestChain{}
		pred core.Predicate = core.WellFormed{}
		tnet *tracedNet
		tsel *tracedSelector
	)
	if traced {
		tnet = &tracedNet{nw: nw, clk: clk}
		tsel = &tracedSelector{clk: clk}
		view, sel, pred = tnet, tsel, &tracedPredicate{inner: pred, clk: clk}
	}
	procs := make([]*replica.Process, shape.n)
	for i := range procs {
		procs[i] = replica.NewProcess(i, view, sel, rec, reg)
		procs[i].P = pred
	}
	if tnet != nil {
		tnet.procs = procs
	}
	nw.SetFIFO(true)

	firstOp := true
	for round := 0; round < shape.blocks; round++ {
		p := procs[in.miners[round%shape.n]]
		sim.Schedule(int64(round+1), func() {
			if firstOp {
				firstOp = false
				r.setup = time.Since(t0)
				clk.switchTo(spSimulate)
			}
			clk.enter(spMine)
			head := p.SelectedHead()
			clk.enter(spBlock)
			blk := core.NewBlock(head.ID, head.Height+1, p.ID, round, protocols.CoinbasePayload(p.ID, round))
			clk.leave()
			clk.enter(spAppend)
			p.AppendLocal(blk)
			clk.leave()
			clk.leave()
		})
	}
	readBatch := func() {
		clk.enter(spReadBatch)
		for _, p := range procs {
			clk.enter(spRead)
			p.Read()
			clk.leave()
		}
		clk.leave()
	}
	every := int64(shape.blocks / floodReadBatches)
	for t := every; t <= int64(shape.blocks); t += every {
		sim.Schedule(t, readBatch)
	}

	sim.RunUntilIdle()
	readBatch()
	clk.leave() // simulate (entered in place of setup at the first op)
	simEnd := time.Since(t0)
	ticks := sim.Now() // mining starts at tick 1

	clk.enter(spSnapshot)
	h := rec.Snapshot()
	clk.leave()
	clk.enter(spCheck)
	_, ec := consistency.NewChecker(core.LengthScore{}, core.WellFormed{}).Classify(h)
	clk.leave()
	clk.stop()
	r.wall = time.Since(t0)
	r.heap = hs.finish()
	r.load = simEnd - r.setup

	r.out = analyze(h)
	r.appends = len(h.SuccessfulAppends())
	r.commits = tickLatenciesMS(r.out.Commits, r.load/time.Duration(ticks))
	switch attached := procs[0].Tree().Len() - 1; {
	case !ec.OK:
		r.err = fmt.Errorf("EC violated on a lossless synchronous run: %s", ec)
	case attached != shape.blocks:
		r.err = fmt.Errorf("%d blocks attached at replica 0, want %d", attached, shape.blocks)
	}
	if withDigest {
		res := &btsim.Result{Result: &protocols.Result{History: h}}
		for _, p := range procs {
			res.Trees = append(res.Trees, p.Tree())
		}
		r.digest = res.Digest()
	}
	if traced {
		sent, _, _ := nw.Stats()
		r.layers = map[string]float64{
			"core.select.calls":       float64(clk.count[spSelect]),
			"core.select.s":           clk.incl[spSelect].Seconds(),
			"core.select.leaves_mean": share(float64(tsel.leaves), float64(clk.count[spSelect])),
			"replica.deliveries":      float64(tnet.deliveries),
			"replica.deliver.s":       clk.incl[spDeliver].Seconds(),
			"replica.dup_share":       share(float64(tnet.dups), float64(tnet.deliveries)),
			"replica.validate.calls":  float64(clk.count[spValidate]),
			"replica.validate.s":      clk.incl[spValidate].Seconds(),
			"simnet.messages":         float64(sent),
			"simnet.steps":            float64(sim.Steps()),
			"history.ops":             float64(len(h.Ops)),
			"history.comm":            float64(len(h.Comm)),
			"history.snapshot.s":      clk.incl[spSnapshot].Seconds(),
			"consistency.check.s":     clk.incl[spCheck].Seconds(),
			"consistency.check.share": clk.incl[spCheck].Seconds() / r.wall.Seconds(),
		}
		selfLayers(r)
	}
	return r
}
