package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/persist"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// The query stream and the ingest feed derive from the benchmark seed; the
// corpus is one pinned dataset (see corpusSeed). The servers never see
// either seed — they receive the corpus file and the requests.

// Query parameters of the four read phases. The point and batch phases
// run at the index's build parameters (ε=3, δ=7), where M_T and the slice
// matrices prune to a handful of candidates; the relaxed phase exceeds
// both, which disables the pruning structures and falls back to a scan.
const (
	nativeEps    = 3
	nativeDelta  = 7
	relaxedEps   = 15
	relaxedDelta = 30
	topK         = 10
	batchEntries = 32
	// reverseShare of the point stream is /reverse, the rest /search.
	reverseShare = 0.30
)

// Op classes of the request stream; each is one latency population.
const (
	opSearch  = "search"
	opReverse = "reverse"
	opTopK    = "topk"
	opRelaxed = "relaxed"
	opBatch   = "batch"
	opIngest  = "ingest"
)

// streamLen bounds the pre-drawn query stream; phases wrap around it. A
// run consumes a few thousand entries per phase from the front, and the
// post-drain verification sample starts at the middle.
const streamLen = 1 << 17

// corpusSeed pins the generated dataset. The benchmark seed drives which
// queries and edits are sent, not which corpus they are sent against:
// measured on the reference box, ten corpora spread every latency metric
// by 8–15 % of its median where ten query streams over one corpus spread
// it by 4–6 %, and the regression bounds are of that order.
const corpusSeed = 1

// generateCorpus makes the dataset; the command always asks for
// corpusAttrs × corpusHorizon, the tests for something small.
func generateCorpus(attrs, horizon int) (*datagen.Corpus, error) {
	return datagen.Generate(datagen.Config{
		Seed: corpusSeed, Attributes: attrs, Horizon: timeline.Time(horizon),
	})
}

// writeCorpus persists the dataset where every server of the run loads it.
func writeCorpus(ds *history.Dataset, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := persist.Write(ds, f); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// request is one HTTP call of the stream, fully rendered so that two
// runs under one seed can be compared byte for byte.
type request struct {
	op     string
	method string
	path   string // path + query string
	body   string // POST body, empty for GET
	// attrs are the query attribute ids behind the request (one for GET
	// endpoints, batchEntries for a batch), kept for answer verification.
	attrs []int
}

// queryStream is the seeded request source shared by all workloads, so
// every tier sees identical requests. ids is one uniform draw over the
// attribute ids; rev marks which point queries go to /reverse.
type queryStream struct {
	ids []int32
	rev []bool
}

func newQueryStream(seed int64, attrs int) *queryStream {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x51ED))
	s := &queryStream{ids: make([]int32, streamLen), rev: make([]bool, streamLen)}
	for i := range s.ids {
		s.ids[i] = int32(rng.Intn(attrs))
		s.rev[i] = rng.Float64() < reverseShare
	}
	return s
}

func (s *queryStream) id(i int) int { return int(s.ids[i%streamLen]) }

// point is the i-th request of the point mix: 70 % /search, 30 % /reverse
// at the index-native parameters.
func (s *queryStream) point(i int) request {
	id := s.id(i)
	if s.rev[i%streamLen] {
		return request{op: opReverse, method: "GET", attrs: []int{id},
			path: fmt.Sprintf("/reverse?attr=%d&eps=%d&delta=%d", id, nativeEps, nativeDelta)}
	}
	return request{op: opSearch, method: "GET", attrs: []int{id},
		path: fmt.Sprintf("/search?attr=%d&eps=%d&delta=%d", id, nativeEps, nativeDelta)}
}

func (s *queryStream) topk(i int) request {
	id := s.id(i)
	return request{op: opTopK, method: "GET", attrs: []int{id},
		path: fmt.Sprintf("/topk?attr=%d&k=%d&delta=%d", id, topK, nativeDelta)}
}

func (s *queryStream) relaxed(i int) request {
	id := s.id(i)
	return request{op: opRelaxed, method: "GET", attrs: []int{id},
		path: fmt.Sprintf("/reverse?attr=%d&eps=%d&delta=%d", id, relaxedEps, relaxedDelta)}
}

// batch is the i-th 32-entry batch: 16 forward then 16 reverse entries.
func (s *queryStream) batch(i int) request {
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	attrs := make([]int, batchEntries)
	for j := 0; j < batchEntries; j++ {
		id := s.id(i*batchEntries + j)
		attrs[j] = id
		mode := "forward"
		if j >= batchEntries/2 {
			mode = "reverse"
		}
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"attr":"%d","mode":"%s","eps":%d,"delta":%d}`, id, mode, nativeEps, nativeDelta)
	}
	b.WriteString("]}")
	return request{op: opBatch, method: "POST", path: "/query/batch", body: b.String(), attrs: attrs}
}

// render flattens the first n requests of every phase into one string;
// the determinism tests compare it across runs.
func (s *queryStream) render(n int) string {
	var b strings.Builder
	for _, gen := range []func(int) request{s.point, s.topk, s.relaxed, s.batch} {
		for i := 0; i < n; i++ {
			r := gen(i)
			b.WriteString(r.method + " " + r.path + " " + r.body + "\n")
		}
	}
	return b.String()
}

// Ingest feed shape: every batch carries appendsPerBatch append deltas,
// and every horizonEvery-th batch first extends the horizon by one day so
// the appends that follow have room to grow into.
const (
	appendsPerBatch = 8
	horizonEvery    = 8
)

// ingestFeed produces valid delta batches against a client-side shadow of
// the evolving dataset, like an external edit feed: observation ends and
// the horizon are tracked here from the generated corpus, never read back
// from the server.
type ingestFeed struct {
	rng      *rand.Rand
	horizon  int
	ends     []int
	order    []int // seeded visiting order of the attributes
	nextAttr int
	batches  int
}

func newIngestFeed(seed int64, ds *history.Dataset) *ingestFeed {
	rng := rand.New(rand.NewSource(seed*0x2545F491 + 0x1234))
	f := &ingestFeed{rng: rng, horizon: int(ds.Horizon()), ends: make([]int, ds.Len())}
	for i := range f.ends {
		f.ends[i] = int(ds.Attr(history.AttrID(i)).ObservedUntil())
	}
	f.order = rng.Perm(ds.Len())
	return f
}

// delta is one history delta of the feed, before rendering.
type delta struct {
	horizon    int // > 0: extend the horizon to this day
	attr       int
	start, end int
	values     []string
}

// next advances the feed by one batch.
func (f *ingestFeed) next() []delta {
	var out []delta
	if f.batches%horizonEvery == 0 {
		f.horizon++
		out = append(out, delta{horizon: f.horizon})
	}
	f.batches++
	// One lap over the visiting order bounds the scan: on a corpus smaller
	// than a horizon step's appends the batch simply comes out shorter.
	for n, scanned := 0, 0; n < appendsPerBatch && scanned < len(f.order); scanned++ {
		a := f.order[f.nextAttr%len(f.order)]
		f.nextAttr++
		if f.ends[a] >= f.horizon {
			continue // already observed up to the horizon; nothing to append
		}
		out = append(out, delta{attr: a, start: f.ends[a], end: f.horizon,
			values: []string{fmt.Sprintf("ingest-%d-%d", f.batches, a), fmt.Sprintf("v%d", f.rng.Intn(1000))}})
		f.ends[a] = f.horizon
		n++
	}
	return out
}

// batch renders the next batch as a POST /ingest body.
func (f *ingestFeed) batch() request {
	var parts []string
	for _, d := range f.next() {
		if d.horizon > 0 {
			parts = append(parts, fmt.Sprintf(`{"op":"extend_horizon","horizon":%d}`, d.horizon))
			continue
		}
		parts = append(parts, fmt.Sprintf(`{"op":"append","attr":%d,"start":%d,"end":%d,"values":["%s"]}`,
			d.attr, d.start, d.end, strings.Join(d.values, `","`)))
	}
	return request{op: opIngest, method: "POST", path: "/ingest",
		body: `{"deltas":[` + strings.Join(parts, ",") + "]}"}
}

// records renders the next batch as WAL records, for the in-process pass.
func (f *ingestFeed) records() []wal.Record {
	var out []wal.Record
	for _, d := range f.next() {
		if d.horizon > 0 {
			out = append(out, wal.Record{Type: wal.TypeExtendHorizon, Horizon: timeline.Time(d.horizon)})
			continue
		}
		out = append(out, wal.Record{Type: wal.TypeAppend, Attr: history.AttrID(d.attr),
			Start: timeline.Time(d.start), End: timeline.Time(d.end), Values: d.values})
	}
	return out
}
