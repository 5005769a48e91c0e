package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// The surfaces FuzzShardWire drives, selected by kind % fuzzKinds.
const (
	fuzzRequest = iota
	fuzzResponse
	fuzzErrorEnvelope
	fuzzKinds
)

// FuzzShardWire throws arbitrary bytes at every decoder of the shard RPC
// — the one request body a shard server reads, the response body and the
// error envelope a router reads — and asserts the distrust contract: never
// a panic; a request is answered 200 with a body the router-side reader
// accepts, or with a typed envelope; a response decodes to a value that
// round-trips and carries only ids the answering shard owns, or to a
// typed error. Seeded with the real exchanges of a healthy two-shard
// cluster.
func FuzzShardWire(f *testing.F) {
	const horizon = timeline.Time(60)
	ds := genDataset(f, 31, 12, horizon)
	opt := testOptions(horizon, 2)
	sg, err := shard.BuildSingle(ds, opt, 1)
	if err != nil {
		f.Fatal(err)
	}
	handler := NewShardServer(sg).Handler()
	want := Info{ShardID: 1, Shards: opt.Shards, Seed: opt.Seed, Attributes: ds.Len(), Horizon: int64(horizon)}

	post := func(ctx context.Context, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/shard/batch", bytes.NewReader(body)).WithContext(ctx)
		handler.ServeHTTP(rec, req)
		return rec
	}

	// Seeds: real requests as the router encodes them, and the real
	// responses the shard server gives. The response reader needs the
	// batch length it asked for; the fuzzed byte supplies it.
	p := core.DefaultDays(horizon)
	var queries []wireQuery
	for _, o := range []index.QueryOptions{
		{Mode: index.ModeForward, Params: p},
		{Mode: index.ModeReverse, Params: p},
		{Mode: index.ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 3},
	} {
		for _, attr := range []history.AttrID{0, 5} {
			wq, err := queryToWire(attr, o)
			if err != nil {
				f.Fatal(err)
			}
			queries = append(queries, wq)
		}
	}
	seed := func(entries ...wireQuery) {
		req, err := json.Marshal(wireBatch{Queries: entries})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(fuzzRequest), uint8(0), req)
		rec := post(context.Background(), req)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed %s answered %d: %s", req, rec.Code, rec.Body)
		}
		f.Add(uint8(fuzzResponse), uint8(len(entries)), rec.Body.Bytes())
	}
	// A lone query is a batch of one: every mode, owned and foreign.
	for _, wq := range queries {
		seed(wq)
	}
	// Two forward entries are what an all-pairs block looks like; the
	// top-k pair puts ranked answers into a batch response.
	seed(queries[:2]...)
	seed(queries[len(queries)-2:]...)
	f.Add(uint8(fuzzErrorEnvelope), uint8(0), []byte(`{"error":{"code":"invalid_parameter","message":"bad k"}}`))
	f.Add(uint8(fuzzErrorEnvelope), uint8(0), []byte(`{"error":{"code":"not_ready","message":"index still building"}}`))
	f.Add(uint8(fuzzRequest), uint8(0), []byte(`{"queries":[{"mode":"topk","attr":3,"params":{"eps":1e308,"delta":9223372036854775807,"weight":{"n":-1,"c":-1}},"k":-5}]}`))
	// Found by this target: a δ beyond 2^30 walked the validation cursor
	// below its old start sentinel and panicked.
	f.Add(uint8(fuzzRequest), uint8(0), []byte(`{"queries":[{"mode":"forward","attr":0,"params":{"delta":1100000000,"weight":{"n":1}}}]}`))

	untrusted := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, shard.ErrLegUnavailable) {
			t.Fatalf("response rejected with an untyped error: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, kind, entries uint8, data []byte) {
		switch int(kind) % fuzzKinds {
		case fuzzRequest:
			// A generous deadline keeps a pathological-but-valid request (a
			// huge delta, say) from stalling the fuzzer; it answers 504.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rec := post(ctx, data)
			if rec.Code == http.StatusOK {
				// Whatever the server answers 200, the router must accept.
				var wb wireBatch
				if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wb); err != nil {
					t.Fatalf("200 for an undecodable request: %v", err)
				}
				if _, err := readBatchResult(rec.Body, len(wb.Queries), want); err != nil {
					t.Fatalf("/shard/batch answered 200 with a body its own router rejects: %v", err)
				}
				return
			}
			var we wireError
			if err := json.NewDecoder(rec.Body).Decode(&we); err != nil {
				t.Fatalf("/shard/batch answered %d without an envelope: %v", rec.Code, err)
			}
			switch {
			case rec.Code == http.StatusBadRequest && we.Error.Code == CodeInvalidParameter:
			case rec.Code == http.StatusGatewayTimeout && we.Error.Code == CodeDeadlineExceeded:
			default:
				t.Fatalf("/shard/batch answered %d %+v, want 200, 400 invalid_parameter or 504 deadline_exceeded",
					rec.Code, we.Error)
			}

		case fuzzResponse:
			n := int(entries)
			results, err := readBatchResult(bytes.NewReader(data), n, want)
			if err != nil {
				untrusted(t, err)
				return
			}
			if len(results) != n {
				t.Fatalf("accepted %d results for a %d-entry batch", len(results), n)
			}
			for _, res := range results {
				for _, id := range res.IDs {
					if err := want.checkID(id); err != nil {
						t.Fatalf("accepted response carries a bad id: %v", err)
					}
				}
				for _, r := range res.Ranked {
					if err := want.checkID(r.ID); err != nil {
						t.Fatalf("accepted response carries a bad id: %v", err)
					}
				}
			}
			// What was accepted is what the server-side encoder writes back
			// out: one encoding, so a second trip changes nothing.
			buf, _ := json.Marshal(wireBatchResult{Results: results})
			again, err := readBatchResult(bytes.NewReader(buf), n, want)
			if err != nil {
				t.Fatalf("accepted result does not re-decode: %s (%v)", buf, err)
			}
			if buf2, _ := json.Marshal(wireBatchResult{Results: again}); !bytes.Equal(buf, buf2) {
				t.Fatalf("batch result does not round-trip: %s -> %s", buf, buf2)
			}

		case fuzzErrorEnvelope:
			for _, callerDone := range []bool{false, true} {
				err := legError("503 Service Unavailable", bytes.NewReader(data), callerDone)
				if !errors.Is(err, index.ErrInvalidOptions) && !errors.Is(err, shard.ErrLegUnavailable) &&
					!(callerDone && errors.Is(err, index.ErrCanceled)) {
					t.Fatalf("envelope %q classified as the untyped error %v", data, err)
				}
			}
		}
	})
}
