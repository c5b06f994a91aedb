package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/btsim"
	_ "repro/btsim/systems" // registers "bitcoin"
	"repro/internal/consistency"
)

// live-tcp shape: the registered bitcoin system deployed as liveN nodes
// over loopback TCP with the online monitor attached, driven by one
// closed-loop client through the single-writer policy (node 0 appends,
// reads rotate over the nodes) until liveBudget appends are granted.
// A granted-append budget, not a duration, bounds the run: throughput
// falls as the chain grows, so under a duration bound a faster system
// would grow a longer chain and hide its own gain.
const (
	liveN      = 8
	liveBudget = 3000
)

// leakWait bounds how long carrier goroutines may take to exit after
// the run returns before they count as leaked.
const leakWait = 2 * time.Second

// verdictsAgree reports whether two verdicts name the same criterion
// with the same per-property outcomes.
func verdictsAgree(a, b *consistency.Verdict) bool {
	if a == nil || b == nil || a.Criterion != b.Criterion || a.OK != b.OK || len(a.Reports) != len(b.Reports) {
		return false
	}
	for i := range a.Reports {
		if a.Reports[i].Property != b.Reports[i].Property || a.Reports[i].OK != b.Reports[i].OK {
			return false
		}
	}
	return true
}

// runLiveTCP runs one live-tcp repetition. Phases are read off the
// run's own recorder clock (microseconds since the clock started,
// inside the run call before the first node is built): setup ends at
// the first operation's invocation, and the load phase and settle wait
// are reported by the run. The teardown phase is the rest of the run
// call after the last recorded event (the final reads): node stop,
// carrier close, the monitor queue drain and finalize, the history
// snapshot and tree clones. It also holds the offset between the call
// and the recorder clock's start (option validation and carrier
// construction), which cannot be seen from outside. Because teardown is
// a remainder, the phases tile the run call by construction, so live
// runs report no self.coverage.
func runLiveTCP(seed uint64, traced, _ bool) *rep {
	r := &rep{}
	goroutines := runtime.NumGoroutine()
	hs := startHeapSampler()
	t0 := time.Now()
	res, err := btsim.Run("bitcoin",
		btsim.WithLive("tcp"), btsim.WithN(liveN), btsim.WithSeed(seed),
		btsim.WithLoad(1, 0), btsim.WithLiveAppends(liveBudget))
	runWall := time.Since(t0)
	r.heap = hs.finish()
	// The traced run's batch check is verification, not workload: the
	// wall time stays the run call so the tracing overhead compares
	// like with like.
	r.wall = runWall
	if err != nil {
		r.err = err
		return r
	}
	lr := res.Live
	var check time.Duration
	if traced {
		c0 := time.Now()
		sc, ec := res.Check()
		check = time.Since(c0)
		if !verdictsAgree(sc, lr.SC) || !verdictsAgree(ec, lr.EC) {
			r.err = fmt.Errorf("online verdicts %s, %s differ from batch %s, %s", lr.SC, lr.EC, sc, ec)
		}
	}

	h := res.History
	firstOp, lastEvent := int64(-1), int64(0)
	for _, op := range h.Ops {
		if firstOp < 0 || op.InvTime < firstOp {
			firstOp = op.InvTime
		}
		lastEvent = max(lastEvent, op.InvTime, op.RspTime)
	}
	for _, e := range h.Comm {
		lastEvent = max(lastEvent, e.Time)
	}
	r.setup = time.Duration(max(firstOp, 0)) * time.Microsecond
	r.load = lr.Elapsed
	r.out = analyze(h)
	r.appends = int(lr.AppendsOK)
	for _, c := range r.out.Commits {
		r.commits = append(r.commits, float64(c.LastUpdate-c.AppendRsp)/1000)
	}

	leaked := runtime.NumGoroutine() - goroutines
	for deadline := time.Now().Add(leakWait); leaked > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		leaked = runtime.NumGoroutine() - goroutines
	}
	switch {
	case r.err != nil:
	case !lr.Converged:
		r.err = fmt.Errorf("deployment did not converge")
	case lr.MonitorErr != nil:
		r.err = fmt.Errorf("online monitor failed: %v", lr.MonitorErr)
	case lr.AppendsOK != liveBudget:
		r.err = fmt.Errorf("%d appends granted, budget %d", lr.AppendsOK, liveBudget)
	case !lr.SC.OK || !lr.EC.OK:
		r.err = fmt.Errorf("benign single-writer run violated: %s, %s", lr.SC, lr.EC)
	case leaked > 0:
		r.err = fmt.Errorf("%d goroutines still running %v after the run", leaked, leakWait)
	}

	if traced {
		setup := r.setup
		last := time.Duration(lastEvent) * time.Microsecond
		teardown := runWall - last
		clk := newLayerClock(t0)
		r.spans = clk
		run := clk.addPhase("btsim.run", -1, 0, runWall)
		clk.addPhase("setup", run, 0, setup)
		clk.addPhase("load", run, setup, setup+lr.Elapsed)
		clk.addPhase("transport.settle", run, setup+lr.Elapsed, setup+lr.Elapsed+lr.Settle)
		clk.addPhase("teardown", run, last, runWall)
		clk.addPhase("consistency.check", -1, runWall, runWall+check)
		timing := func(name string) float64 {
			for _, nv := range lr.Metrics.Timing {
				if nv.Name == name {
					return float64(nv.Value)
				}
			}
			return 0
		}
		r.layers = map[string]float64{
			"phase.setup.s":                       setup.Seconds(),
			"history.ops":                         float64(len(h.Ops)),
			"history.comm":                        float64(len(h.Comm)),
			"consistency.check.s":                 check.Seconds(),
			"consistency.check.share":             check.Seconds() / (runWall + check).Seconds(),
			"consistency.monitor.queue_highwater": timing("live.monitor.queue.highwater"),
			"consistency.monitor.blocked":         timing("live.monitor.queue.blocked"),
			"phase.teardown.s":                    teardown.Seconds(),
			"consistency.self.s":                  check.Seconds(),
			"protocols.oracle.attempts":           float64(lr.Attempts),
			"protocols.oracle.grants":             float64(lr.AppendsOK),
			"protocols.oracle.grant_share":        share(float64(lr.AppendsOK), float64(lr.Attempts)),
			"transport.frames_sent":               float64(lr.Sent),
			"transport.frames_per_commit":         share(float64(lr.Sent), float64(len(r.out.Commits))),
			"transport.settle.s":                  lr.Settle.Seconds(),
			"transport.self.s":                    (setup + lr.Settle).Seconds(),
			"btsim.run.s":                         runWall.Seconds(),
		}
	}
	return r
}
