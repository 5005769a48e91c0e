// Package router is the network transport of the system's one
// scatter-gather (shard.Coordinator): each shard server builds one
// hash-partition of the corpus (shard.BuildSingle) and exposes that
// shard.Single over JSON-over-HTTP (ShardServer); the Router is a
// Coordinator whose legs are HTTP clients of those servers. Scatter,
// failure classification and merge are the exact code the in-process
// ShardedIndex runs, so the differential guarantee (sharded ≡ monolith ≡
// oracle) transfers to the distributed deployment by construction.
//
// The wire protocol speaks global AttrIDs only. Every shard server
// loads the full dataset (resolution is cheap; the index over the owned
// 1/N slice is the expensive part) so any global attribute can be the
// query of any leg, and results come back already global.
//
// What this package adds to the Coordinator is everything a network
// makes necessary (see httpLeg) — above all the classification of
// transport failures as shard.ErrLegUnavailable, which is what turns a
// dead shard into a typed partial result instead of a failed query.
package router

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// wireWeight carries a timeline.Constant weight function. Constant
// covers everything the serving surface can express (Uniform and
// Relative are both constants); a non-constant WeightFunc cannot cross
// the wire and is rejected at encode time.
type wireWeight struct {
	N int64   `json:"n"`
	C float64 `json:"c"`
}

// wireParams is core.Params on the wire.
type wireParams struct {
	Eps    float64    `json:"eps"`
	Delta  int64      `json:"delta"`
	Weight wireWeight `json:"weight"`
}

// wireQuery is one scatter leg's request: the global attribute id plus
// the already-compiled query options. The Router compiles exactly once
// (or receives pre-compiled options from tindserve's decode path) and
// every shard executes the identical options — no per-shard defaulting
// that could drift.
type wireQuery struct {
	Mode   string     `json:"mode"` // forward | reverse | topk
	Attr   int64      `json:"attr"` // global AttrID
	Params wireParams `json:"params"`
	K      int        `json:"k,omitempty"`
	Trace  bool       `json:"trace,omitempty"`
}

// wireBatch is one scatter leg of a batched query: the full batch goes
// to every shard (each shard resolves ownership itself) and costs one
// round trip per shard for the whole batch, exactly like the in-process
// ShardedIndex.QueryBatch.
type wireBatch struct {
	Queries []wireQuery `json:"queries"`
}

// wireTimings is index.Timings in nanoseconds.
type wireTimings struct {
	MTPrune     int64 `json:"mt_prune_ns"`
	SlicePrune  int64 `json:"slice_prune_ns"`
	SubsetCheck int64 `json:"subset_check_ns"`
	Validate    int64 `json:"validate_ns"`
	Rank        int64 `json:"rank_ns"`
	Total       int64 `json:"total_ns"`
}

// wireStats is the funnel slice of index.QueryStats one leg reports:
// candidate counts, per-phase timings and the leg's wall time. Traces
// and PerShard attribution stay local to each side — the Router builds
// its own PerShard from leg observations.
type wireStats struct {
	InitialCandidates int         `json:"initial_candidates"`
	AfterSlices       int         `json:"after_slices"`
	AfterSubsetCheck  int         `json:"after_subset_check"`
	Validated         int         `json:"validated"`
	Results           int         `json:"results"`
	SlicesUsed        int         `json:"slices_used"`
	ElapsedNs         int64       `json:"elapsed_ns"`
	Timings           wireTimings `json:"timings"`
}

// wireRanked is one top-k entry, id already global.
type wireRanked struct {
	ID        int64   `json:"id"`
	Violation float64 `json:"violation"`
}

// wireResult is one leg's answer. IDs/Ranked are global and in the
// shard's merged order (ascending ids; ranked by violation, id).
type wireResult struct {
	IDs    []int64      `json:"ids,omitempty"`
	Ranked []wireRanked `json:"ranked,omitempty"`
	Stats  wireStats    `json:"stats"`
}

// wireBatchResult carries one leg's per-entry answers in batch order.
type wireBatchResult struct {
	Results []wireResult `json:"results"`
}

// Info describes a shard server's identity and corpus. The Router
// verifies that every reachable replica agrees on everything but Owned at
// startup, so a mis-deployed topology (wrong seed, wrong shard count,
// different corpus) fails loudly instead of silently dropping results —
// and holds each leg's answers to it afterwards (checkID).
type Info struct {
	ShardID    int   `json:"shard_id"`
	Shards     int   `json:"shards"`
	Seed       int64 `json:"seed"`
	Attributes int   `json:"attributes"`
	Owned      int   `json:"owned"`
	Horizon    int64 `json:"horizon"`
}

// wireToMode parses a wire mode name, which is index.Mode's String form.
func wireToMode(s string) (index.Mode, error) {
	for _, m := range []index.Mode{index.ModeForward, index.ModeReverse, index.ModeTopK} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown mode %q", index.ErrInvalidOptions, s)
}

// paramsToWire encodes core.Params; only constant weight functions are
// expressible over the wire.
func paramsToWire(p core.Params) (wireParams, error) {
	c, ok := p.Weight.(timeline.Constant)
	if !ok {
		return wireParams{}, fmt.Errorf("%w: weight %T is not expressible over the wire (want timeline.Constant)",
			index.ErrInvalidOptions, p.Weight)
	}
	return wireParams{
		Eps:    p.Epsilon,
		Delta:  int64(p.Delta),
		Weight: wireWeight{N: int64(c.N), C: c.C},
	}, nil
}

// wireToParams is the inverse of paramsToWire.
func wireToParams(wp wireParams) core.Params {
	return core.Params{
		Epsilon: wp.Eps,
		Delta:   timeline.Time(wp.Delta),
		Weight:  timeline.Constant{N: timeline.Time(wp.Weight.N), C: wp.Weight.C},
	}
}

// queryToWire encodes one compiled query for the scatter.
func queryToWire(attr history.AttrID, o index.QueryOptions) (wireQuery, error) {
	mode := o.Mode.String()
	if _, err := wireToMode(mode); err != nil {
		return wireQuery{}, err
	}
	wp, err := paramsToWire(o.Params)
	if err != nil {
		return wireQuery{}, err
	}
	return wireQuery{Mode: mode, Attr: int64(attr), Params: wp, K: o.K, Trace: o.Trace}, nil
}

// wireToOptions decodes a leg request back into the compiled options
// the shard's index executes.
func wireToOptions(wq wireQuery) (history.AttrID, index.QueryOptions, error) {
	mode, err := wireToMode(wq.Mode)
	if err != nil {
		return 0, index.QueryOptions{}, err
	}
	o := index.QueryOptions{Mode: mode, Params: wireToParams(wq.Params), K: wq.K, Trace: wq.Trace}
	return history.AttrID(wq.Attr), o, nil
}

// statsToWire projects one leg's QueryStats onto the wire funnel.
func statsToWire(st index.QueryStats) wireStats {
	return wireStats{
		InitialCandidates: st.InitialCandidates,
		AfterSlices:       st.AfterSlices,
		AfterSubsetCheck:  st.AfterSubsetCheck,
		Validated:         st.Validated,
		Results:           st.Results,
		SlicesUsed:        st.SlicesUsed,
		ElapsedNs:         st.Elapsed.Nanoseconds(),
		Timings: wireTimings{
			MTPrune:     st.Timings.MTPrune.Nanoseconds(),
			SlicePrune:  st.Timings.SlicePrune.Nanoseconds(),
			SubsetCheck: st.Timings.SubsetCheck.Nanoseconds(),
			Validate:    st.Timings.Validate.Nanoseconds(),
			Rank:        st.Timings.Rank.Nanoseconds(),
			Total:       st.Timings.Total.Nanoseconds(),
		},
	}
}

// wireToStats rebuilds a leg's QueryStats from the wire funnel.
func wireToStats(ws wireStats) index.QueryStats {
	var st index.QueryStats
	st.InitialCandidates = ws.InitialCandidates
	st.AfterSlices = ws.AfterSlices
	st.AfterSubsetCheck = ws.AfterSubsetCheck
	st.Validated = ws.Validated
	st.Results = ws.Results
	st.SlicesUsed = ws.SlicesUsed
	st.Elapsed = time.Duration(ws.ElapsedNs)
	st.Timings = index.Timings{
		MTPrune:     time.Duration(ws.Timings.MTPrune),
		SlicePrune:  time.Duration(ws.Timings.SlicePrune),
		SubsetCheck: time.Duration(ws.Timings.SubsetCheck),
		Validate:    time.Duration(ws.Timings.Validate),
		Rank:        time.Duration(ws.Timings.Rank),
		Total:       time.Duration(ws.Timings.Total),
	}
	return st
}

// resultToWire encodes one leg's answer with ids already global.
func resultToWire(res index.Result) wireResult {
	wr := wireResult{Stats: statsToWire(res.Stats)}
	if len(res.IDs) > 0 {
		wr.IDs = make([]int64, len(res.IDs))
		for i, id := range res.IDs {
			wr.IDs[i] = int64(id)
		}
	}
	if len(res.Ranked) > 0 {
		wr.Ranked = make([]wireRanked, len(res.Ranked))
		for i, r := range res.Ranked {
			wr.Ranked[i] = wireRanked{ID: int64(r.ID), Violation: r.Violation}
		}
	}
	return wr
}

// checkID rejects an attribute id a shard server has no business
// returning: one outside the corpus (it would index past the router's
// dataset) or one that shard i.ShardID does not own (it would duplicate
// or displace another shard's answer in the merge).
func (i Info) checkID(id int64) error {
	if id < 0 || id >= int64(i.Attributes) {
		return fmt.Errorf("attribute id %d outside the corpus [0,%d)", id, i.Attributes)
	}
	if owner := history.ShardOf(history.AttrID(id), i.Seed, i.Shards); owner != i.ShardID {
		return fmt.Errorf("attribute id %d belongs to shard %d, not shard %d", id, owner, i.ShardID)
	}
	return nil
}

// badResponse is the error of a response that arrived but cannot be
// trusted: the replica that sent it is unavailable as far as this call is
// concerned.
func badResponse(err error) error {
	return fmt.Errorf("%w: bad response: %v", shard.ErrLegUnavailable, err)
}

// wireToResult decodes one leg's answer from shard want.ShardID, holding
// every returned id to want.
func wireToResult(wr wireResult, want Info) (index.Result, error) {
	res := index.Result{Stats: wireToStats(wr.Stats)}
	if len(wr.IDs) > 0 {
		res.IDs = make([]history.AttrID, len(wr.IDs))
		for i, id := range wr.IDs {
			if err := want.checkID(id); err != nil {
				return index.Result{}, badResponse(err)
			}
			res.IDs[i] = history.AttrID(id)
		}
	}
	if len(wr.Ranked) > 0 {
		res.Ranked = make([]index.Ranked, len(wr.Ranked))
		for i, r := range wr.Ranked {
			if err := want.checkID(r.ID); err != nil {
				return index.Result{}, badResponse(err)
			}
			res.Ranked[i] = index.Ranked{ID: history.AttrID(r.ID), Violation: r.Violation}
		}
	}
	return res, nil
}

// readResult decodes a /shard/query response body.
func readResult(body io.Reader, want Info) (index.Result, error) {
	var wr wireResult
	if err := json.NewDecoder(body).Decode(&wr); err != nil {
		return index.Result{}, badResponse(err)
	}
	return wireToResult(wr, want)
}

// readBatchResult decodes a /shard/batch response body, which must
// answer exactly n entries.
func readBatchResult(body io.Reader, n int, want Info) ([]index.Result, error) {
	var wr wireBatchResult
	if err := json.NewDecoder(body).Decode(&wr); err != nil {
		return nil, badResponse(err)
	}
	if len(wr.Results) != n {
		return nil, badResponse(fmt.Errorf("%d results for a %d-entry batch", len(wr.Results), n))
	}
	results := make([]index.Result, n)
	for i, w := range wr.Results {
		var err error
		if results[i], err = wireToResult(w, want); err != nil {
			return nil, err
		}
	}
	return results, nil
}
