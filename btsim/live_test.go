package btsim_test

import (
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
)

// liveProperties are the six BT-ADT properties a benign single-writer
// live deployment must satisfy regardless of system — the live-vs-sim
// conformance contract: the deployment path (real goroutines, wall
// clocks, live carrier) reaches the same verdicts the simulated path
// pins in the scenario catalogue.
func checkLiveBenign(t *testing.T, system string) {
	t.Helper()
	res, err := btsim.Run(system,
		btsim.WithN(8),
		btsim.WithSeed(42),
		btsim.WithLive("chan"),
		btsim.WithLiveAppends(20),
		btsim.WithLoad(2, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Live
	if lr == nil {
		t.Fatal("WithLive run returned no LiveResult")
	}
	if lr.MonitorErr != nil {
		t.Fatalf("online monitor failed: %v", lr.MonitorErr)
	}
	if !lr.Converged {
		t.Fatal("deployment did not converge before the settle timeout")
	}
	if lr.LiveWitnesses != 0 {
		t.Fatalf("benign run streamed %d live witnesses", lr.LiveWitnesses)
	}
	if v := lr.Violated(); len(v) != 0 {
		t.Fatalf("benign live %s violated %v\nSC: %v\nEC: %v", system, v, lr.SC, lr.EC)
	}
	// All six properties present and OK across the two verdicts.
	seen := map[string]bool{}
	for _, rep := range append(lr.SC.Reports, lr.EC.Reports...) {
		if !rep.OK {
			t.Fatalf("%s: property %s broken: %v", system, rep.Property, rep)
		}
		seen[rep.Property] = true
	}
	for _, p := range []string{
		"BlockValidity", "LocalMonotonicRead", "StrongPrefix",
		"EverGrowingTree", "EventualPrefix",
	} {
		if !seen[p] {
			t.Fatalf("%s: property %s missing from live verdicts (got %v)", system, p, seen)
		}
	}
	// The live evidence feeds the batch checker identically: Check()
	// on the embedded Result must agree with the online verdicts.
	sc, ec := res.Check()
	if !sc.OK || !ec.OK {
		t.Fatalf("%s: batch re-check of live history disagrees:\nSC: %v\nEC: %v", system, sc, ec)
	}
	if lr.AppendsOK < 20 {
		t.Fatalf("%s: granted %d appends, want >= 20", system, lr.AppendsOK)
	}
}

func TestLiveConformanceBitcoin(t *testing.T) { checkLiveBenign(t, "bitcoin") }
func TestLiveConformanceFabric(t *testing.T)  { checkLiveBenign(t, "fabric") }

func TestLiveRejectsSimulationKnobs(t *testing.T) {
	cases := [][]btsim.Option{
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithStreaming(0)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithMonitorCheckpoint(10)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithShards(4)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithCrashes(btsim.Crash{Proc: 1, Start: 1, End: 2})},
		{btsim.WithLive("carrier-pigeon"), btsim.WithLiveAppends(5)},
		{btsim.WithLive("chan")},   // no duration, no budget
		{btsim.WithLiveAppends(5)}, // live knob without WithLive
	}
	for i, opts := range cases {
		if _, err := btsim.Run("bitcoin", opts...); err == nil {
			t.Errorf("case %d: invalid live config accepted", i)
		}
	}
}

// TestLiveMonitorOptions: the simulation's monitor options configure a
// live run's own monitor — WithMonitorK adds the k-Fork Coherence
// report — while the bounded-memory options stay rejected by name.
func TestLiveMonitorOptions(t *testing.T) {
	res, err := btsim.Run("bitcoin",
		btsim.WithN(4), btsim.WithSeed(42),
		btsim.WithLive("chan"), btsim.WithLiveAppends(10),
		btsim.WithMonitor(nil), btsim.WithMonitorK(1))
	if err != nil {
		t.Fatal(err)
	}
	if kf := res.Live.KFork; kf == nil || kf.Property != "1-ForkCoherence" {
		t.Fatalf("live k-fork report = %v, want 1-ForkCoherence", kf)
	}
	if res.Stream != nil {
		t.Fatal("live run also attached a simulation monitor")
	}
	_, err = btsim.Run("bitcoin",
		btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithStreaming(0))
	if err == nil || !strings.Contains(err.Error(), "WithStreaming") {
		t.Fatalf("WithLive + WithStreaming: err = %v, want a rejection naming WithStreaming", err)
	}
}
