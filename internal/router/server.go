package router

import (
	"encoding/json"
	"fmt"
	"net/http"

	"tind/internal/index"
	"tind/internal/shard"
)

// Bounds of the /shard/* RPC bodies, the same two the public
// /query/batch enforces: a leg request is a control-plane payload, and a
// router never forwards a larger batch than it accepted itself — nor than
// one all-pairs block, which is why the entry cap is that constant.
const (
	shardMaxBody    = 1 << 20
	shardMaxQueries = index.BlockEntries
)

// ShardServer is the wire adaptor that puts one shard.Single on the
// network: it decodes leg requests, calls the Single — which owns the
// local↔global id mapping and speaks global AttrIDs on both sides — and
// encodes the answer. It holds no query logic of its own.
type ShardServer struct {
	sg *shard.Single
}

// NewShardServer wraps one built shard.
func NewShardServer(sg *shard.Single) *ShardServer { return &ShardServer{sg: sg} }

// Handler returns the shard RPC surface:
//
//	POST /shard/batch — one scatter leg (wireBatch → wireBatchResult)
//	GET  /shard/info  — partition identity for topology validation
//	GET  /shard/stats — the shard index's BuildStats
//
// The caller mounts it behind whatever middleware the deployment needs
// (tindserve adds readiness gating and load shedding).
func (ss *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/batch", ss.handleBatch)
	mux.HandleFunc("/shard/info", ss.handleInfo)
	mux.HandleFunc("/shard/stats", ss.handleStats)
	return mux
}

// admitter is the ResponseWriter of a deployment that charges a leg's
// admission by what it carries (tindserve's limiter): with one RPC the
// route no longer says whether a leg is a lone query or a discovery block,
// so handleBatch reports the entry count once the body is decoded. Admit
// answers false after shedding the request itself.
type admitter interface{ Admit(entries int) bool }

// decodePost enforces POST and the body bound, and decodes the JSON body
// into v.
func decodePost(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, CodeInvalidParameter, fmt.Errorf("use POST"))
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, shardMaxBody)).Decode(v); err != nil {
		HTTPError(w, http.StatusBadRequest, CodeInvalidParameter, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func (ss *ShardServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var wb wireBatch
	if !decodePost(w, r, &wb) {
		return
	}
	if len(wb.Queries) > shardMaxQueries {
		HTTPError(w, http.StatusBadRequest, CodeInvalidParameter,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(wb.Queries), shardMaxQueries))
		return
	}
	if a, ok := w.(admitter); ok && !a.Admit(len(wb.Queries)) {
		return
	}
	batch := make([]index.BatchQuery, len(wb.Queries))
	for i, wq := range wb.Queries {
		attr, o, err := wireToOptions(wq)
		if err != nil {
			QueryError(w, index.EntryErr(len(batch), i, err))
			return
		}
		batch[i] = index.BatchQuery{ByID: true, ID: attr, Options: o}
	}
	results, err := ss.sg.QueryBatch(r.Context(), batch, index.BatchOptions{})
	if err != nil {
		QueryError(w, err)
		return
	}
	WriteJSON(w, wireBatchResult{Results: results})
}

func (ss *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	ds := ss.sg.Dataset()
	WriteJSON(w, Info{
		ShardID:    ss.sg.ShardID,
		Shards:     ss.sg.NumShards(),
		Seed:       ss.sg.Seed(),
		Attributes: ds.Len(),
		Owned:      len(ss.sg.Globals()),
		Horizon:    int64(ds.Horizon()),
	})
}

func (ss *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, ss.sg.Stats())
}
