package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	fuzzQueryRequest = iota
	fuzzBatchRequest
	fuzzQueryResponse
	fuzzBatchResponse
	fuzzErrorEnvelope
	fuzzKinds
)

// FuzzShardWire throws arbitrary bytes at every decoder of the shard RPC
// — the two request bodies a shard server reads and the three response
// bodies a router reads — and asserts the distrust contract: never a
// panic; a request is answered 200 with a body the router-side reader
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
	const batchLen = 2

	paths := [...]string{"/shard/query", "/shard/batch"}
	post := func(ctx context.Context, kind int, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, paths[kind], bytes.NewReader(body)).WithContext(ctx)
		handler.ServeHTTP(rec, req)
		return rec
	}

	// Seeds: real requests as the router encodes them, and the real
	// responses the shard server gives.
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
	seed := func(kind int, v interface{}) {
		req, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), req)
		rec := post(context.Background(), kind, req)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed %s answered %d: %s", paths[kind], rec.Code, rec.Body)
		}
		f.Add(uint8(kind+fuzzQueryResponse), rec.Body.Bytes())
	}
	for _, wq := range queries {
		seed(fuzzQueryRequest, wq)
	}
	// Two forward entries are what an all-pairs block looks like; the
	// top-k pair puts ranked answers into a batch response.
	seed(fuzzBatchRequest, wireBatch{Queries: queries[:batchLen]})
	seed(fuzzBatchRequest, wireBatch{Queries: queries[len(queries)-batchLen:]})
	f.Add(uint8(fuzzErrorEnvelope), []byte(`{"error":{"code":"invalid_parameter","message":"bad k"}}`))
	f.Add(uint8(fuzzErrorEnvelope), []byte(`{"error":{"code":"not_ready","message":"index still building"}}`))
	f.Add(uint8(fuzzQueryRequest), []byte(`{"mode":"topk","attr":3,"params":{"eps":1e308,"delta":9223372036854775807,"weight":{"n":-1,"c":-1}},"k":-5}`))
	// Found by this target: a δ beyond 2^30 walked the validation cursor
	// below its old start sentinel and panicked.
	f.Add(uint8(fuzzQueryRequest), []byte(`{"mode":"forward","attr":0,"params":{"delta":1100000000,"weight":{"n":1}}}`))

	untrusted := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, shard.ErrLegUnavailable) {
			t.Fatalf("response rejected with an untyped error: %v", err)
		}
	}
	ownedBy := func(t *testing.T, who Info, id history.AttrID) {
		t.Helper()
		if err := who.checkID(int64(id)); err != nil {
			t.Fatalf("accepted response carries a bad id: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch k := int(kind) % fuzzKinds; k {
		case fuzzQueryRequest, fuzzBatchRequest:
			// A generous deadline keeps a pathological-but-valid request (a
			// huge delta, say) from stalling the fuzzer; it answers 504.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rec := post(ctx, k, data)
			if rec.Code == http.StatusOK {
				// Whatever the server answers 200, the router must accept.
				var err error
				switch k {
				case fuzzQueryRequest:
					_, err = readResult(rec.Body, want)
				default:
					var wb wireBatch
					if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wb); err != nil {
						t.Fatalf("200 for an undecodable request: %v", err)
					}
					_, err = readBatchResult(rec.Body, len(wb.Queries), want)
				}
				if err != nil {
					t.Fatalf("%s answered 200 with a body its own router rejects: %v", paths[k], err)
				}
				return
			}
			var we wireError
			if err := json.NewDecoder(rec.Body).Decode(&we); err != nil {
				t.Fatalf("%s answered %d without an envelope: %v", paths[k], rec.Code, err)
			}
			switch {
			case rec.Code == http.StatusBadRequest && we.Error.Code == CodeInvalidParameter:
			case rec.Code == http.StatusGatewayTimeout && we.Error.Code == CodeDeadlineExceeded:
			default:
				t.Fatalf("%s answered %d %+v, want 200, 400 invalid_parameter or 504 deadline_exceeded",
					paths[k], rec.Code, we.Error)
			}

		case fuzzQueryResponse:
			res, err := readResult(bytes.NewReader(data), want)
			if err != nil {
				untrusted(t, err)
				return
			}
			for _, id := range res.IDs {
				ownedBy(t, want, id)
			}
			for _, r := range res.Ranked {
				ownedBy(t, want, r.ID)
			}
			buf, _ := json.Marshal(resultToWire(res))
			if again, err := readResult(bytes.NewReader(buf), want); err != nil || !reflect.DeepEqual(res, again) {
				t.Fatalf("result does not round-trip: %+v -> %s -> %+v (%v)", res, buf, again, err)
			}

		case fuzzBatchResponse:
			results, err := readBatchResult(bytes.NewReader(data), batchLen, want)
			if err != nil {
				untrusted(t, err)
				return
			}
			if len(results) != batchLen {
				t.Fatalf("accepted %d results for a %d-entry batch", len(results), batchLen)
			}
			out := wireBatchResult{Results: make([]wireResult, len(results))}
			for i, res := range results {
				out.Results[i] = resultToWire(res)
			}
			buf, _ := json.Marshal(out)
			if again, err := readBatchResult(bytes.NewReader(buf), batchLen, want); err != nil || !reflect.DeepEqual(results, again) {
				t.Fatalf("batch result does not round-trip: %s (%v)", buf, err)
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
