// Command perfbench is the repository's benchmark: one command that runs
// a named workload for a fixed time, checks every output, and prints
// the end-to-end metrics (untraced runs) or the per-layer metrics (a
// traced run) as one JSON line.
//
//	perfbench --workload sim-flood --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for their shapes and why each exists):
//
//	sim-flood  the SimScale pipeline built from simnet/replica/core/consistency
//	live-tcp   btsim.Run("bitcoin") deployed over loopback TCP
//
// A run repeats the workload until --seconds have passed and reports
// medians over the repetitions. With --trace 1 it alternates untraced
// and traced repetitions, reports the traced medians per layer plus the
// tracing overhead, and writes the recorded spans under .bench_build/spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// defaultSeed is the seed whose digests are pinned.
const defaultSeed = 1

// rep is what one repetition of a workload measured and checked.
type rep struct {
	wall    time.Duration // workload call → both verdicts in
	setup   time.Duration // workload call → first BT-ADT operation
	load    time.Duration // window appends_per_s divides by
	appends int           // successful appends
	commits []float64     // commit latency (ms) per block on the final chain
	heap    uint64        // peak sampled heap bytes
	digest  string        // replay digest ("" when not computed)
	out     outcome
	layers  map[string]float64 // per-layer metrics (traced repetitions)
	spans   *layerClock
	err     error // first failed output check
}

// workload is one named benchmark input set.
type workload struct {
	name string
	// run executes one repetition; traced selects the instrumented
	// path, withDigest asks for the replay digest.
	run func(seed uint64, traced, withDigest bool) *rep
	// replayable workloads are deterministic: each repetition has a
	// replay digest, and pinned is the one of the default seed.
	replayable bool
	pinned     string
}

var workloads = []workload{
	{name: "sim-flood", run: runSimFlood, replayable: true, pinned: pinnedSimFlood},
	{name: "live-tcp", run: runLiveTCP},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: sim-flood or live-tcp")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (digests are pinned for the default)")
	seconds := flag.Float64("seconds", 20, "measuring time; repetitions continue until it has passed")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	spanDir := flag.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {sim-flood|live-tcp}, --seconds > 0, --trace {0|1}\n")
		os.Exit(2)
	}
	// All load comes from this one process on at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, dumps := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if len(dumps) > 0 {
		if err := writeSpans(*spanDir, wl.name, *seed, dumps); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloadSeed derives the seed a workload hands the program from the
// benchmark seed, so the program only ever sees generated inputs.
func workloadSeed(seed uint64) uint64 {
	return rand.New(rand.NewPCG(seed, 0x70657266)).Uint64()
}

// measure runs repetitions until budget has passed and assembles the
// result line. Traced runs alternate untraced and traced repetitions
// so the tracing overhead compares neighbours.
func measure(wl *workload, seed uint64, budget time.Duration, traced bool) (result, []spanDump) {
	start := time.Now()
	var plain, inst []*rep
	var dumps []spanDump
	res := result{Correct: true}
	fail := func(r *rep) {
		if r.err != nil && res.Correct {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl.name, seed, r.err)
		}
	}
	for i := 0; ; i++ {
		withTrace := traced && i%2 == 1
		// The digest is computed on the first repetition of each kind:
		// the workloads are deterministic, so one check per run pins
		// them, and every traced repetition must reproduce it.
		withDigest := wl.replayable && (i == 0 || withTrace)
		r := runRep(wl, seed, withTrace, withDigest)
		fail(r)
		if r.err == nil && withDigest {
			switch {
			case seed == defaultSeed && r.digest != wl.pinned:
				r.err = fmt.Errorf("digest %s, pinned %s", r.digest, wl.pinned)
			case withTrace && r.digest != plain[0].digest:
				r.err = fmt.Errorf("traced digest %s differs from untraced %s", r.digest, plain[0].digest)
			}
			fail(r)
		}
		fmt.Fprintf(os.Stderr, "perfbench: rep %d traced=%v wall=%.3fs setup=%.4fs load=%.3fs ops=%d appends=%d commit_p50=%.3fms heap=%.1fMB digest=%q\n",
			i, withTrace, r.wall.Seconds(), r.setup.Seconds(), r.load.Seconds(), r.out.Ops, r.appends, median(r.commits).Value, float64(r.heap)/1e6, r.digest)
		res.tally(r)
		if withTrace {
			if r.layers != nil {
				r.layers["phase.load.s"] = r.load.Seconds()
				r.layers["commit.p90_ms"] = percentile(r.commits, 0.90).Value
				r.layers["commit.p99_ms"] = percentile(r.commits, 0.99).Value
				r.layers["commit.samples"] = float64(len(r.commits))
			}
			inst = append(inst, r)
			dumps = append(dumps, r.spans.dump(len(inst)))
		} else {
			plain = append(plain, r)
		}
		if !res.Correct || time.Since(start) >= budget && len(plain) > 0 && (!traced || len(inst) > 0) {
			break
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if traced {
		res.Metrics = layerMetrics(plain, inst)
	} else {
		res.Metrics = endToEnd(plain)
	}
	// A failed run may lack the repetitions a metric needs; its line
	// must still print, so undefined values read 0.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	return res, dumps
}

// tally adds a repetition's operations to the attempted and failed
// counts. A repetition that failed an output check counts all its
// operations as failed.
func (res *result) tally(r *rep) {
	res.Attempted += int64(r.out.Ops)
	if r.err != nil {
		res.Failed += int64(r.out.Ops)
	} else {
		res.Failed += int64(r.out.Failed)
	}
}

// runRep runs one repetition from a collected heap.
func runRep(wl *workload, seed uint64, traced, withDigest bool) *rep {
	runtime.GC()
	return wl.run(workloadSeed(seed), traced, withDigest)
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, f(r))
	}
	return out
}

// endToEnd reports the medians, over the untraced repetitions, of the
// metrics a user of the system sees.
func endToEnd(reps []*rep) map[string]metric {
	med := func(f func(*rep) float64) float64 { return median(collect(reps, f)).Value }
	return map[string]metric{
		"setup_s": {med(func(r *rep) float64 { return r.setup.Seconds() }), "s"},
		"ops_per_s": {med(func(r *rep) float64 {
			return float64(r.out.Ops) / r.wall.Seconds()
		}), "1/s"},
		"appends_per_s": {med(func(r *rep) float64 {
			return float64(r.appends) / r.load.Seconds()
		}), "1/s"},
		"commit_p50_ms": {med(func(r *rep) float64 { return median(r.commits).Value }), "ms"},
		"peak_heap_mb":  {med(func(r *rep) float64 { return float64(r.heap) / 1e6 }), "MB"},
	}
}

// layerUnits lists every per-layer metric with its unit; layers a
// workload does not reach report 0.
var layerUnits = map[string]string{
	"phase.setup.s":                       "s",
	"phase.load.s":                        "s",
	"phase.teardown.s":                    "s",
	"bench.self.s":                        "s",
	"bench.reps":                          "count",
	"core.select.calls":                   "count",
	"core.select.s":                       "s",
	"core.select.leaves_mean":             "count",
	"core.self.s":                         "s",
	"replica.deliveries":                  "count",
	"replica.deliver.s":                   "s",
	"replica.dup_share":                   "ratio",
	"replica.validate.calls":              "count",
	"replica.validate.s":                  "s",
	"replica.self.s":                      "s",
	"simnet.messages":                     "count",
	"simnet.steps":                        "count",
	"simnet.self.s":                       "s",
	"history.ops":                         "count",
	"history.comm":                        "count",
	"history.snapshot.s":                  "s",
	"history.self.s":                      "s",
	"consistency.check.s":                 "s",
	"consistency.check.share":             "ratio",
	"consistency.self.s":                  "s",
	"consistency.monitor.queue_highwater": "count",
	"consistency.monitor.blocked":         "count",
	"protocols.oracle.attempts":           "count",
	"protocols.oracle.grants":             "count",
	"protocols.oracle.grant_share":        "ratio",
	"transport.frames_sent":               "count",
	"transport.frames_per_commit":         "count",
	"transport.settle.s":                  "s",
	"transport.self.s":                    "s",
	"btsim.run.s":                         "s",
	"commit.p90_ms":                       "ms",
	"commit.p99_ms":                       "ms",
	"commit.samples":                      "count",
	"self.coverage":                       "ratio",
	"tracing.overhead":                    "ratio",
}

// layerMetrics reports the medians over the traced repetitions of each
// per-layer metric, plus the tracing overhead: median traced wall time
// over median untraced wall time.
func layerMetrics(plain, inst []*rep) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{median(collect(inst, func(r *rep) float64 { return r.layers[name] })).Value, unit}
	}
	wall := func(reps []*rep) float64 {
		return median(collect(reps, func(r *rep) float64 { return r.wall.Seconds() })).Value
	}
	out["tracing.overhead"] = metric{wall(inst) / wall(plain), "ratio"}
	out["bench.reps"] = metric{float64(len(inst)), "count"}
	return out
}

// selfLayers fills the per-layer self times and their coverage of the
// traced wall time from a repetition's layer clock.
func selfLayers(r *rep) {
	c := r.spans
	var covered time.Duration
	for l := 0; l < numLayers; l++ {
		if l != lyBench {
			covered += c.self[l]
		}
	}
	for _, l := range []int{lySimnet, lyReplica, lyCore, lyHistory, lyConsistency, lyBench} {
		r.layers[layerNames[l]+".self.s"] = c.self[l].Seconds()
	}
	r.layers["phase.setup.s"] = c.self[lySetup].Seconds()
	r.layers["self.coverage"] = covered.Seconds() / r.wall.Seconds()
}

// share divides, returning 0 for an empty base.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler tracks the high-water mark of heap object bytes (the
// runtime/metrics counterpart of MemStats.HeapAlloc, readable without
// stopping the world) over a workload's measured window.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			peak = max(peak, readHeap(s))
			select {
			case <-tick.C:
			case <-h.stop:
				h.done <- max(peak, readHeap(s))
				return
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}
