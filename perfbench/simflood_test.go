package main

import (
	"testing"

	"repro/btsim"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// referenceFlood runs the sim-flood schedule on a group built by
// replica.NewGroup, with no decorators, and returns its replay digest.
func referenceFlood(shape floodShape, seed uint64) string {
	in := floodInputsOf(seed, shape.n)
	sim := simnet.NewSim(in.simSeed)
	g := replica.NewGroup(sim, shape.n, simnet.Synchronous{Delta: floodDelta}, core.LongestChain{})
	g.Net.SetFIFO(true)
	g.SetPredicate(core.WellFormed{})
	for round := 0; round < shape.blocks; round++ {
		p := g.Procs[in.miners[round%shape.n]]
		sim.Schedule(int64(round+1), func() {
			head := p.SelectedHead()
			p.AppendLocal(core.NewBlock(head.ID, head.Height+1, p.ID, round, protocols.CoinbasePayload(p.ID, round)))
		})
	}
	every := int64(shape.blocks / floodReadBatches)
	for t := every; t <= int64(shape.blocks); t += every {
		sim.Schedule(t, func() {
			for _, p := range g.Procs {
				p.Read()
			}
		})
	}
	sim.RunUntilIdle()
	for _, p := range g.Procs {
		p.Read()
	}
	res := &btsim.Result{Result: &protocols.Result{History: g.History()}}
	for _, p := range g.Procs {
		res.Trees = append(res.Trees, p.Tree())
	}
	return res.Digest()
}

// TestFloodAssemblyMatchesNewGroup checks that the benchmark's own group
// assembly, untraced and with every decorator installed, replays the
// same run as replica.NewGroup.
func TestFloodAssemblyMatchesNewGroup(t *testing.T) {
	shape := floodShape{n: 8, blocks: 400}
	for _, seed := range []uint64{1, 2} {
		want := referenceFlood(shape, seed)
		for _, traced := range []bool{false, true} {
			r := floodRep(shape, seed, traced, true)
			if r.err != nil {
				t.Fatalf("seed %d traced=%v: %v", seed, traced, r.err)
			}
			if r.digest != want {
				t.Errorf("seed %d traced=%v: digest %s, NewGroup run %s", seed, traced, r.digest, want)
			}
			if r.out.Ops != shape.blocks+(floodReadBatches+1)*shape.n || r.out.Failed != 0 {
				t.Errorf("seed %d traced=%v: %d ops, %d failed", seed, traced, r.out.Ops, r.out.Failed)
			}
		}
	}
}

// TestTracedFloodAccountsForWallTime checks the layer clock's
// partition: the self times of the traced run cover its wall time.
func TestTracedFloodAccountsForWallTime(t *testing.T) {
	r := floodRep(floodShape{n: 8, blocks: 400}, 1, true, false)
	if cov := r.layers["self.coverage"]; cov < 0.9 || cov > 1.0001 {
		t.Errorf("self.coverage = %v, want within [0.9, 1]", cov)
	}
	if calls := r.layers["core.select.calls"]; calls != float64(400+(floodReadBatches+1)*8) {
		t.Errorf("core.select.calls = %v, want one per append and per read", calls)
	}
	if got := r.layers["replica.deliveries"]; got != 400*8 {
		t.Errorf("replica.deliveries = %v, want %d", got, 400*8)
	}
}
