package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Layers the traced runs charge wall time to. "setup" is the phase
// from the workload call to its first BT-ADT operation; "bench" is
// the benchmark's own harness code (event callbacks, loops).
const (
	lySetup = iota
	lyBench
	lySimnet
	lyReplica
	lyCore
	lyHistory
	lyConsistency
	numLayers
)

var layerNames = [numLayers]string{"setup", "bench", "simnet", "replica", "core", "history", "consistency"}

// Spans the traced runs record around calls into a layer's public
// functions. Hot-path spans (a call per delivery or per selection) are
// aggregated into a count and an inclusive total; phase spans (one per
// repetition) are also kept individually with their start and end.
const (
	spSetup     = iota // setup phase
	spSimulate         // simnet.Sim.RunUntilIdle
	spMine             // a mining event callback
	spReadBatch        // a read-batch event callback or the final reads
	spBlock            // core.NewBlock
	spSelect           // core.Selector.SelectHead / Select
	spAppend           // replica.Process.AppendLocal
	spRead             // replica.Process.Read
	spDeliver          // a replica delivery handler
	spValidate         // core.Predicate.Valid
	spSend             // simnet.Network.Broadcast / Send
	spSnapshot         // history.Recorder.Snapshot
	spCheck            // consistency.Checker.Classify
	numSpans
)

var spanInfo = [numSpans]struct {
	name  string
	layer int
	phase bool
}{
	spSetup:     {"setup", lySetup, true},
	spSimulate:  {"simnet.run", lySimnet, true},
	spMine:      {"bench.mine", lyBench, false},
	spReadBatch: {"bench.reads", lyBench, false},
	spBlock:     {"core.block", lyCore, false},
	spSelect:    {"core.select", lyCore, false},
	spAppend:    {"replica.append", lyReplica, false},
	spRead:      {"replica.read", lyReplica, false},
	spDeliver:   {"replica.deliver", lyReplica, false},
	spValidate:  {"replica.validate", lyReplica, false},
	spSend:      {"simnet.send", lySimnet, false},
	spSnapshot:  {"history.snapshot", lyHistory, true},
	spCheck:     {"consistency.check", lyConsistency, true},
}

// phaseSpan is one recorded phase: name, start and end relative to the
// repetition's start, and the index of the enclosing phase (-1 at top).
type phaseSpan struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type frame struct {
	layer int
	span  int
	start time.Time
	phase int
}

// layerClock is the traced run's span recorder. Exactly one layer is
// charged at any moment: entering a span charges the interval since
// the last transition to the layer being left, and leaving charges it
// to the span's layer. The self times therefore partition the clock's
// lifetime, and a layer's self time is its spans' time minus the part
// their child spans cover. All methods are no-ops on a nil clock, which
// is how the untraced runs call them.
type layerClock struct {
	t0    time.Time
	last  time.Time
	cur   int
	stack []frame

	self   [numLayers]time.Duration
	incl   [numSpans]time.Duration
	count  [numSpans]int64
	phases []phaseSpan
}

func newLayerClock(t0 time.Time) *layerClock {
	return &layerClock{t0: t0, last: t0, cur: lyBench}
}

func (c *layerClock) enter(span int) {
	if c == nil {
		return
	}
	now := time.Now()
	c.self[c.cur] += now.Sub(c.last)
	c.last = now
	f := frame{layer: c.cur, span: span, start: now, phase: -1}
	if spanInfo[span].phase {
		parent := -1
		for i := len(c.stack) - 1; i >= 0; i-- {
			if c.stack[i].phase >= 0 {
				parent = c.stack[i].phase
				break
			}
		}
		f.phase = len(c.phases)
		c.phases = append(c.phases, phaseSpan{Name: spanInfo[span].name, Parent: parent, Start: now.Sub(c.t0).Seconds()})
	}
	c.stack = append(c.stack, f)
	c.cur = spanInfo[span].layer
}

func (c *layerClock) leave() {
	if c == nil {
		return
	}
	now := time.Now()
	c.self[c.cur] += now.Sub(c.last)
	c.last = now
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	c.incl[f.span] += now.Sub(f.start)
	c.count[f.span]++
	if f.phase >= 0 {
		c.phases[f.phase].End = now.Sub(c.t0).Seconds()
	}
	c.cur = f.layer
}

// switchTo ends the current top span and enters another in its place
// (used where a phase boundary is only observable from inside a call,
// such as the first mining callback of a simulation ending setup).
func (c *layerClock) switchTo(span int) {
	c.leave()
	c.enter(span)
}

// stop charges the time up to now to the current layer.
func (c *layerClock) stop() {
	if c == nil {
		return
	}
	now := time.Now()
	c.self[c.cur] += now.Sub(c.last)
	c.last = now
}

// addPhase records a phase observed after the fact (the live run's
// phases are read off its own clock once it has returned) and returns
// its index for use as a parent.
func (c *layerClock) addPhase(name string, parent int, start, end time.Duration) int {
	c.phases = append(c.phases, phaseSpan{Name: name, Parent: parent, Start: start.Seconds(), End: end.Seconds()})
	return len(c.phases) - 1
}

// spanDump is the per-repetition trace written when the run ends.
type spanDump struct {
	Rep        int                `json:"rep"`
	Phases     []phaseSpan        `json:"phases"`
	Aggregates map[string]aggSpan `json:"aggregates"`
	SelfS      map[string]float64 `json:"self_s"`
}

type aggSpan struct {
	Count int64   `json:"count"`
	InclS float64 `json:"incl_s"`
}

func (c *layerClock) dump(rep int) spanDump {
	d := spanDump{Rep: rep, Phases: c.phases, Aggregates: map[string]aggSpan{}, SelfS: map[string]float64{}}
	for s := 0; s < numSpans; s++ {
		if c.count[s] > 0 {
			d.Aggregates[spanInfo[s].name] = aggSpan{Count: c.count[s], InclS: c.incl[s].Seconds()}
		}
	}
	for l := 0; l < numLayers; l++ {
		if c.self[l] > 0 {
			d.SelfS[layerNames[l]] = c.self[l].Seconds()
		}
	}
	return d
}

// writeSpans writes the kept traces of a run as one JSON document.
func writeSpans(dir, workload string, seed uint64, dumps []spanDump) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(dumps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}
