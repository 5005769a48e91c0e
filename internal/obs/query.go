package obs

import (
	"fmt"
	"time"
)

// Query-phase names, in pipeline order: one name is a trace span's Name,
// the {phase} label of tind_query_phase_seconds and the wide event's
// phases_ms key.
const (
	PhaseMTPrune     = "mt_prune"
	PhaseSlicePrune  = "slice_prune"
	PhaseSubsetCheck = "subset_check"
	PhaseValidate    = "validate"
	PhaseRank        = "rank" // top-k only: exact violation-weight ranking
)

// Phases lists every phase name in pipeline order.
var Phases = [...]string{PhaseMTPrune, PhaseSlicePrune, PhaseSubsetCheck, PhaseValidate, PhaseRank}

// Timings is the per-phase breakdown of a query, mirroring the pruning
// pipeline of Algorithm 1. Phases that did not run stay zero. Total is
// always set, even for aborted queries. The JSON tags are the shard RPC's
// wire form (integer nanoseconds).
type Timings struct {
	Total       time.Duration `json:"total_ns"`
	MTPrune     time.Duration `json:"mt_prune_ns"`     // candidate generation: M_T, M_R or the prefix index
	SlicePrune  time.Duration `json:"slice_prune_ns"`  // time-slice pruning
	SubsetCheck time.Duration `json:"subset_check_ns"` // exact subset pre-check (line 16); forward and top-k only, zero for reverse
	Validate    time.Duration `json:"validate_ns"`     // Algorithm-2 validation
	Rank        time.Duration `json:"rank_ns"`         // top-k only: exact violation-weight ranking
}

// phases returns the phase fields in the order of Phases.
func (t *Timings) phases() [len(Phases)]*time.Duration {
	return [...]*time.Duration{&t.MTPrune, &t.SlicePrune, &t.SubsetCheck, &t.Validate, &t.Rank}
}

// Add sums src's phases into t. Total is a wall time: the caller stamps it.
func (t *Timings) Add(src Timings) {
	s := src.phases()
	for i, d := range t.phases() {
		*d += *s[i]
	}
}

// ShardStat is one scatter leg's row of a sharded query: the leg's wall
// time plus the shard-local phase timings and funnel counts, so a
// straggling shard is attributable from a single wide event.
type ShardStat struct {
	Shard             int
	Elapsed           time.Duration // leg wall time, gate to gather
	Timings           Timings       // shard-local phase breakdown
	InitialCandidates int
	Validated         int
	Results           int
	// Err marks a failed scatter leg with the leg's error text; empty on
	// success. A failed leg's funnel counts are whatever the shard had
	// accumulated when it aborted — without the marker a dead shard is
	// indistinguishable from a legitimately fast "0 candidates" leg. The
	// wide event renders it as the row's "error", and partial answers
	// list the rows that carry it in "shards_failed".
	Err string
}

// Failed reports whether this scatter leg errored.
func (s ShardStat) Failed() bool { return s.Err != "" }

// Add folds src, another batch entry's share of the same scatter leg,
// into s: the leg's shard, wall time and error are src's — every entry a
// leg carried agrees on them — and its phase timings and funnel sum.
func (s *ShardStat) Add(src *ShardStat) {
	s.Shard, s.Elapsed, s.Err = src.Shard, src.Elapsed, src.Err
	s.Timings.Add(src.Timings)
	s.InitialCandidates += src.InitialCandidates
	s.Validated += src.Validated
	s.Results += src.Results
}

// Span is one timed phase of a query, with offsets relative to the
// query's start. It is read off the same clock as the phase's Timings
// field, so Duration equals that field.
type Span struct {
	Name  string
	Start time.Duration // offset from query start
	End   time.Duration // offset from query start
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// String renders the span for logs: "validate +1.2ms 3.4ms".
func (s Span) String() string {
	return fmt.Sprintf("%s +%v %v", s.Name, s.Start, s.Duration())
}
