package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRecordSelect(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 5; i++ {
		l.Record(Event{Kind: EventQuery, Mode: "forward", QueryID: uint64(i + 1), Duration: time.Duration(i+1) * time.Millisecond})
	}
	l.Record(Event{Kind: EventBatch, Mode: "batch", BatchSize: 3, Duration: 9 * time.Millisecond})
	l.Record(Event{Kind: EventQuery, Mode: "reverse", Duration: 100 * time.Microsecond, ErrorClass: "deadline_exceeded"})

	all := l.Select(EventFilter{})
	if len(all) != 7 {
		t.Fatalf("Select(all) = %d events, want 7", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq <= all[i].Seq {
			t.Fatalf("events not newest-first: seq[%d]=%d seq[%d]=%d", i-1, all[i-1].Seq, i, all[i].Seq)
		}
	}

	if got := l.Select(EventFilter{Kind: EventBatch}); len(got) != 1 || got[0].BatchSize != 3 {
		t.Fatalf("Select(kind=batch) = %+v, want one batch event", got)
	}
	if got := l.Select(EventFilter{Mode: "forward"}); len(got) != 5 {
		t.Fatalf("Select(mode=forward) = %d events, want 5", len(got))
	}
	if got := l.Select(EventFilter{MinDuration: 4 * time.Millisecond}); len(got) != 3 {
		t.Fatalf("Select(min=4ms) = %d events, want 3 (5ms, 4ms, 9ms)", len(got))
	}
	if got := l.Select(EventFilter{ErrorsOnly: true}); len(got) != 1 || got[0].ErrorClass != "deadline_exceeded" {
		t.Fatalf("Select(errors) = %+v, want the one errored event", got)
	}
	if got := l.Select(EventFilter{Limit: 2}); len(got) != 2 || got[0].Seq != 7 {
		t.Fatalf("Select(limit=2) = %+v, want newest two", got)
	}
}

func TestEventLogWraps(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 40; i++ {
		l.Record(Event{Kind: EventQuery, QueryID: uint64(i)})
	}
	got := l.Select(EventFilter{})
	if len(got) != 16 {
		t.Fatalf("after wrap Select = %d events, want ring capacity 16", len(got))
	}
	if got[0].Seq != 40 || got[len(got)-1].Seq != 25 {
		t.Fatalf("retained seqs [%d..%d], want [40..25]", got[0].Seq, got[len(got)-1].Seq)
	}
	if l.LastSeq() != 40 {
		t.Fatalf("LastSeq = %d, want 40", l.LastSeq())
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Event{Kind: EventQuery})
				l.Select(EventFilter{Limit: 5})
			}
		}()
	}
	wg.Wait()
	if l.LastSeq() != 800 {
		t.Fatalf("LastSeq = %d, want 800", l.LastSeq())
	}
}

func TestEventJSONShape(t *testing.T) {
	ev := Event{
		Kind: EventBatch, QueryID: 42, Mode: "batch", Endpoint: "/query/batch",
		Status: 200, BatchSize: 8, Candidates: 120, Validated: 30, Results: 10,
		Duration: 12500 * time.Microsecond,
		Phases:   Timings{Total: 12 * time.Millisecond, MTPrune: time.Millisecond, Validate: 2 * time.Millisecond},
		Shards: []ShardStat{
			{Shard: 0, Elapsed: 3 * time.Millisecond, InitialCandidates: 60, Err: "shard: leg unavailable"},
			{Shard: 1, Elapsed: 12 * time.Millisecond, InitialCandidates: 60, Timings: Timings{Validate: 11 * time.Millisecond}},
		},
	}
	l := NewEventLog(16)
	l.Record(ev)
	got := l.Select(EventFilter{})[0]

	b, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m["duration_ms"].(float64) != 12.5 {
		t.Errorf("duration_ms = %v, want 12.5", m["duration_ms"])
	}
	shards := m["shards"].([]interface{})
	if len(shards) != 2 {
		t.Fatalf("shards = %d entries, want 2", len(shards))
	}
	s1 := shards[1].(map[string]interface{})
	if s1["elapsed_ms"].(float64) != 12 {
		t.Errorf("shard 1 elapsed_ms = %v, want 12", s1["elapsed_ms"])
	}
	if _, ok := s1["phases_ms"].(map[string]interface{})["validate"]; !ok {
		t.Errorf("shard 1 missing phases_ms.validate: %v", s1)
	}
	if s1["candidates"].(float64) != 60 {
		t.Errorf("shard 1 candidates = %v, want 60", s1["candidates"])
	}
	// A failed leg is named by its row's error; a healthy row has none.
	if s0 := shards[0].(map[string]interface{}); s0["error"] != "shard: leg unavailable" {
		t.Errorf("failed shard 0 row: %v, want its error", s0)
	}
	if _, ok := s1["error"]; ok {
		t.Errorf("healthy shard 1 row carries an error: %v", s1)
	}
	// The phases render without Total, and without rank where it did not run.
	phases := m["phases_ms"].(map[string]interface{})
	if len(phases) != 4 || phases["mt_prune"].(float64) != 1 || phases["validate"].(float64) != 2 {
		t.Errorf("phases_ms = %v, want the four search phases", phases)
	}
	// The phases and per-shard legs are the per-request record; no span
	// list rides along.
	if _, ok := m["trace"]; ok {
		t.Errorf("query event JSON carries a trace key: %s", b)
	}

	// Ingest-shaped events omit query-shaped fields; a Timings holding
	// only Total renders no phases_ms.
	l2 := NewEventLog(16)
	l2.Record(Event{Kind: EventIngestApply, Records: 7, WALFsync: time.Millisecond, Duration: 5 * time.Millisecond,
		Phases: Timings{Total: 5 * time.Millisecond}})
	b, _ = json.Marshal(l2.Select(EventFilter{})[0])
	s := string(b)
	for _, absent := range []string{"shards", "trace", "query_id", "batch_size", "phases_ms"} {
		if strings.Contains(s, fmt.Sprintf("%q", absent)) {
			t.Errorf("ingest event JSON contains %q: %s", absent, s)
		}
	}
	if !strings.Contains(s, `"records":7`) || !strings.Contains(s, `"wal_fsync_ms":1`) {
		t.Errorf("ingest event JSON missing ingest fields: %s", s)
	}
}
