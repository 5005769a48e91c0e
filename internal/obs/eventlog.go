package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the serving stack. One wide event is emitted
// per unit of server work — a query, a batch, an ingest apply, a
// snapshot, an engine refresh — carrying everything an operator needs to
// reconstruct what that unit did: identity, phase timings, per-shard
// attribution, funnel counts, durability costs and the error class.
const (
	EventQuery       = "query"
	EventBatch       = "batch"
	EventIngestApply = "ingest_apply"
	EventSnapshot    = "snapshot"
	EventRefresh     = "refresh"
	EventReslice     = "reslice"
)

// Event is one wide, structured record of a unit of server work. Fields
// not meaningful for a kind stay zero and are omitted from the JSON
// rendering. A query-shaped event holds the engine's own record of the
// query — its Timings and its ShardStat rows, failed legs' errors
// included — not a copy of it. Events are value types: once handed to
// EventLog.Record the caller must not mutate the Shards slice it passed.
type Event struct {
	Seq  uint64    // assigned by Record
	Time time.Time // assigned by Record when zero
	Kind string

	// Query-shaped fields.
	QueryID    uint64 // server-assigned query id (X-Query-ID)
	Mode       string // forward | reverse | topk | batch
	Endpoint   string
	Status     int // HTTP status, query/batch events only
	BatchSize  int
	Candidates int
	Validated  int
	Results    int
	Phases     Timings     // rendered as phases_ms, without Total
	Shards     []ShardStat // sharded execution only

	// Ingest-shaped fields.
	Records  int           // records applied / refreshed
	WALFsync time.Duration // most recent WAL fsync latency at apply time

	Duration   time.Duration
	ErrorClass string // empty on success
}

// MarshalJSON renders the event for /debug/events with millisecond
// floats for every duration — the shape operators and dashboards read —
// omitting fields that are zero for this event's kind.
func (e Event) MarshalJSON() ([]byte, error) {
	type shardJSON struct {
		Shard      int                `json:"shard"`
		ElapsedMs  float64            `json:"elapsed_ms"`
		Phases     map[string]float64 `json:"phases_ms,omitempty"`
		Candidates int                `json:"candidates"`
		Validated  int                `json:"validated"`
		Results    int                `json:"results"`
		Error      string             `json:"error,omitempty"`
	}
	out := struct {
		Seq        uint64             `json:"seq"`
		Time       time.Time          `json:"time"`
		Kind       string             `json:"kind"`
		QueryID    uint64             `json:"query_id,omitempty"`
		Mode       string             `json:"mode,omitempty"`
		Endpoint   string             `json:"endpoint,omitempty"`
		Status     int                `json:"status,omitempty"`
		BatchSize  int                `json:"batch_size,omitempty"`
		DurationMs float64            `json:"duration_ms"`
		ErrorClass string             `json:"error_class,omitempty"`
		Candidates int                `json:"candidates,omitempty"`
		Validated  int                `json:"validated,omitempty"`
		Results    int                `json:"results,omitempty"`
		Phases     map[string]float64 `json:"phases_ms,omitempty"`
		Shards     []shardJSON        `json:"shards,omitempty"`
		Records    int                `json:"records,omitempty"`
		WALFsyncMs float64            `json:"wal_fsync_ms,omitempty"`
	}{
		Seq: e.Seq, Time: e.Time, Kind: e.Kind,
		QueryID: e.QueryID, Mode: e.Mode, Endpoint: e.Endpoint,
		Status: e.Status, BatchSize: e.BatchSize,
		DurationMs: ms(e.Duration), ErrorClass: e.ErrorClass,
		Candidates: e.Candidates, Validated: e.Validated, Results: e.Results,
		Phases:  phaseMap(e.Phases),
		Records: e.Records, WALFsyncMs: ms(e.WALFsync),
	}
	for _, s := range e.Shards {
		out.Shards = append(out.Shards, shardJSON{
			Shard: s.Shard, ElapsedMs: ms(s.Elapsed), Phases: phaseMap(s.Timings),
			Candidates: s.InitialCandidates, Validated: s.Validated, Results: s.Results,
			Error: s.Err,
		})
	}
	return json.Marshal(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseMap renders t's phases as phases_ms: nil when none ran, and rank
// only where it did.
func phaseMap(t Timings) map[string]float64 {
	if t == (Timings{Total: t.Total}) {
		return nil
	}
	m := make(map[string]float64, len(Phases))
	for i, d := range t.phases() {
		if Phases[i] != PhaseRank || *d > 0 {
			m[Phases[i]] = ms(*d)
		}
	}
	return m
}

// EventFilter selects events from the ring. Zero fields match anything.
type EventFilter struct {
	Kind        string        // exact kind match
	Mode        string        // exact mode match
	MinDuration time.Duration // keep events at least this long
	ErrorsOnly  bool          // keep only events with a non-empty error class
	Limit       int           // newest-first cap; 0 means no cap
}

func (f EventFilter) match(e *Event) bool {
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.Mode != "" && e.Mode != f.Mode {
		return false
	}
	if e.Duration < f.MinDuration {
		return false
	}
	if f.ErrorsOnly && e.ErrorClass == "" {
		return false
	}
	return true
}

// EventLog is a fixed-size ring buffer of wide events. Recording claims
// a slot with one atomic add and copies the event under that slot's own
// mutex, so concurrent writers only contend when the ring has wrapped
// all the way around — the hot query path pays one uncontended
// lock/copy/unlock per completed query, never an allocation.
type EventLog struct {
	slots []eventSlot
	seq   atomic.Uint64
}

type eventSlot struct {
	mu sync.Mutex
	ev Event
}

// NewEventLog returns a ring holding the most recent capacity events
// (minimum 16).
func NewEventLog(capacity int) *EventLog {
	if capacity < 16 {
		capacity = 16
	}
	return &EventLog{slots: make([]eventSlot, capacity)}
}

// defaultEvents is the process-wide ring the instrumented packages
// record into; cmd/tindserve serves it at /debug/events.
var defaultEvents = NewEventLog(4096)

// Events returns the process-wide event ring.
func Events() *EventLog { return defaultEvents }

// Record stamps the event with the next sequence number (and the
// current time, when unset) and stores it, overwriting the oldest event
// once the ring is full. It returns the assigned sequence number.
func (l *EventLog) Record(ev Event) uint64 {
	seq := l.seq.Add(1)
	ev.Seq = seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	s := &l.slots[(seq-1)%uint64(len(l.slots))]
	s.mu.Lock()
	s.ev = ev
	s.mu.Unlock()
	return seq
}

// LastSeq returns the sequence number of the most recently recorded
// event (0 when none).
func (l *EventLog) LastSeq() uint64 { return l.seq.Load() }

// Select returns the events matching the filter, newest first.
func (l *EventLog) Select(f EventFilter) []Event {
	out := make([]Event, 0, len(l.slots))
	for i := range l.slots {
		s := &l.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq == 0 || !f.match(&ev) {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
