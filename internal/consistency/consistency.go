// Package consistency implements the paper's consistency criteria as
// executable checkers over recorded histories:
//
//   - the four properties of BT Strong Consistency (Definition 3.2):
//     Block Validity, Local Monotonic Read, Strong Prefix, Ever Growing
//     Tree;
//   - the Eventual Prefix property (Definition 3.3) and BT Eventual
//     Consistency (Definition 3.4);
//   - k-Fork Coherence (Definition 3.9);
//   - the Update Agreement properties R1–R3 (Definition 4.3) and the
//     Light Reliable Communication properties (Definition 4.4).
//
// The six §3 properties have one implementation, the online Monitor
// (monitor.go), which also documents their semantics and the finitary
// readings of the liveness-flavoured ones: Strong Prefix, Local
// Monotonic Read, Block Validity and k-Fork Coherence are checked
// exactly, while Ever Growing Tree and Eventual Prefix read a trailing
// window of reads as "the suffix". Checker.Classify is the Monitor,
// replayed: it feeds a recorded history through a fresh Monitor and
// returns its verdicts, so after-the-fact and online checking cannot
// disagree.
package consistency

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/history"
)

// Witness is a structured counterexample backing one violation: the
// offending operations (a diverging read pair, the stale read, the >k
// appends) and block IDs (fork blocks, the invalid block), plus the
// rendered detail line. The violation matrix of internal/scenario and
// the cmd/historyviz renderer consume witnesses instead of re-parsing
// the human-readable Violations strings.
type Witness struct {
	// Property names the violated property.
	Property string
	// Ops are the operations that together exhibit the violation.
	Ops []*history.Op
	// Blocks are the block IDs at the heart of the violation (chain
	// heads of a diverging pair, fork siblings, the invalid block).
	Blocks []core.BlockID
	// Detail is the rendered counterexample (same text as the matching
	// Violations entry).
	Detail string
}

// String renders the witness as "property: detail".
func (w Witness) String() string {
	return w.Property + ": " + w.Detail
}

// Report is the outcome of checking one property on one history.
type Report struct {
	// Property names the property checked.
	Property string
	// OK reports whether the property holds (under the finitary
	// reading for liveness-flavoured properties).
	OK bool
	// Violations holds human-readable counterexamples, capped at
	// MaxViolations.
	Violations []string
	// Witnesses holds the structured counterexamples, parallel to
	// Violations (same cap, same order).
	Witnesses []Witness
	// Checked counts the atomic facts examined (pairs, reads, ...),
	// so reports can convey coverage.
	Checked int
}

// MaxViolations caps the counterexamples retained per report.
const MaxViolations = 16

func (r *Report) violate(format string, args ...any) {
	r.witness(nil, nil, format, args...)
}

// witness records a violation together with its structured counterexample
// (ops and blocks may be nil when the violation has no natural carrier,
// as for the plain violate() path — the Witness then carries only the
// detail line, keeping Witnesses parallel to Violations everywhere).
func (r *Report) witness(ops []*history.Op, blocks []core.BlockID, format string, args ...any) {
	r.OK = false
	if len(r.Violations) < MaxViolations {
		detail := fmt.Sprintf(format, args...)
		r.Violations = append(r.Violations, detail)
		r.Witnesses = append(r.Witnesses, Witness{Property: r.Property, Ops: ops, Blocks: blocks, Detail: detail})
	}
}

// String renders "property: OK (n facts)" or the first violation.
func (r *Report) String() string {
	if r.OK {
		return fmt.Sprintf("%s: OK (%d facts)", r.Property, r.Checked)
	}
	return fmt.Sprintf("%s: VIOLATED (%d facts, e.g. %s)", r.Property, r.Checked, r.Violations[0])
}

// Checker bundles the parameters of the criteria: the score function
// and the validity predicate P of the BT-ADT under scrutiny, plus the
// liveness tail window. Its checks replay a recorded history through a
// fresh Monitor, the package's one implementation of the properties;
// the Monitor's documentation (monitor.go) states their semantics and
// finitary readings.
type Checker struct {
	// Score is the monotonic score function (Definition 3.2 notation).
	Score core.Score
	// P is the validity predicate for Block Validity.
	P core.Predicate
	// Horizon overrides the liveness tail-window size; 0 means
	// max(2, procs).
	Horizon int
}

// NewChecker returns a Checker with the given score and predicate
// (nil means length score / always-valid).
func NewChecker(sc core.Score, p core.Predicate) *Checker {
	if sc == nil {
		sc = core.LengthScore{}
	}
	if p == nil {
		p = core.AlwaysValid{}
	}
	return &Checker{Score: sc, P: p}
}

// Classify returns both verdicts, the shape of Table 1's consistency
// column: the Monitor, replayed over h. sc is BT Strong Consistency
// (Definition 3.2: Block Validity ∧ Local Monotonic Read ∧ Strong
// Prefix ∧ Ever Growing Tree); ec is BT Eventual Consistency
// (Definition 3.4: Eventual Prefix in place of Strong Prefix). Read one
// property's report with Verdict.Report.
func (c *Checker) Classify(h *history.History) (sc, ec *Verdict) {
	return c.replay(h).Finalize()
}

// KForkCoherence checks Definition 3.9 (at most k successful appends
// per oracle token) by the same replay.
func (c *Checker) KForkCoherence(h *history.History, k int) *Report {
	return c.replay(h).KForkReport(k)
}

// replay feeds h into a fresh Monitor the way a Recorder feeds an
// attached one: faulty processes marked up front, completed operations
// in response order, then the operations that never completed. The
// monitor rebuilds witness chains of interned reads from h.Table.
func (c *Checker) replay(h *history.History) *Monitor {
	m := NewMonitor(MonitorConfig{Procs: h.Procs, Score: c.Score, P: c.P, Horizon: c.Horizon, Table: h.Table})
	for p := 0; p < h.Procs; p++ {
		if !h.IsCorrect(p) {
			m.Faulty(p)
		}
	}
	done := make([]*history.Op, 0, len(h.Ops))
	var pending []*history.Op
	for _, op := range h.Ops {
		if op.Pending {
			pending = append(pending, op)
		} else {
			done = append(done, op)
		}
	}
	slices.SortStableFunc(done, func(a, b *history.Op) int { return cmp.Compare(a.RspIndex, b.RspIndex) })
	for _, op := range done {
		m.OpDone(op)
	}
	for _, op := range pending {
		m.OpPending(op)
	}
	return m
}

// shortIDs renders block IDs compactly for witness details.
func shortIDs(ids []core.BlockID) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.Short()
	}
	return "[" + strings.Join(out, " ") + "]"
}

// Verdict aggregates the criterion-level outcome.
type Verdict struct {
	// Criterion is "SC" or "EC".
	Criterion string
	OK        bool
	Reports   []*Report
}

// String renders e.g. "SC: HOLDS" or "EC: VIOLATED (StrongPrefix)".
func (v *Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("%s: HOLDS", v.Criterion)
	}
	for _, r := range v.Reports {
		if !r.OK {
			return fmt.Sprintf("%s: VIOLATED (%s)", v.Criterion, r.Property)
		}
	}
	return fmt.Sprintf("%s: VIOLATED", v.Criterion)
}

// Report returns the verdict's report on the named property, or nil
// when the criterion does not include it.
func (v *Verdict) Report(property string) *Report {
	for _, r := range v.Reports {
		if r.Property == property {
			return r
		}
	}
	return nil
}

// Failing returns the names of the violated properties.
func (v *Verdict) Failing() []string {
	var out []string
	for _, r := range v.Reports {
		if !r.OK {
			out = append(out, r.Property)
		}
	}
	return out
}

// Witnesses returns the structured counterexamples of every violated
// property in the verdict, in report order.
func (v *Verdict) Witnesses() []Witness {
	var out []Witness
	for _, r := range v.Reports {
		out = append(out, r.Witnesses...)
	}
	return out
}

// FirstWitness returns the first counterexample, or a zero Witness when
// the verdict holds (check OK first).
func (v *Verdict) FirstWitness() Witness {
	for _, r := range v.Reports {
		if len(r.Witnesses) > 0 {
			return r.Witnesses[0]
		}
	}
	return Witness{}
}

// verdictOf bundles reports into a criterion verdict.
func verdictOf(criterion string, reports ...*Report) *Verdict {
	v := &Verdict{Criterion: criterion, OK: true, Reports: reports}
	for _, r := range reports {
		v.OK = v.OK && r.OK
	}
	return v
}
