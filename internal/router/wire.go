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

// wireQuery is one entry of a leg request: the global attribute id plus
// the already-compiled query options. The Router compiles exactly once
// (or receives pre-compiled options from tindserve's decode path) and
// every shard executes the identical options — no per-shard defaulting
// that could drift. A leg never asks for a trace: a shard's spans stay in
// the process that recorded them (index.QueryStats.Trace is not encoded).
type wireQuery struct {
	Mode   string     `json:"mode"` // forward | reverse | topk
	Attr   int64      `json:"attr"` // global AttrID
	Params wireParams `json:"params"`
	K      int        `json:"k,omitempty"`
}

// wireBatch is a scatter leg's request, the one the shard RPC has: the
// full batch goes to every shard (each shard resolves ownership itself)
// and costs one round trip per shard for the whole batch, exactly like the
// in-process ShardedIndex.QueryBatch. A lone query is a batch of one.
type wireBatch struct {
	Queries []wireQuery `json:"queries"`
}

// wireBatchResult is a leg's answer: one index.Result per entry, in batch
// order, in the encoding the index types' own JSON tags define — ids and
// ranked entries global and in the shard's merged order (ascending ids;
// ranked by violation, id), durations as integer nanoseconds, traces and
// per-shard attribution left out (the Router builds its own PerShard from
// leg observations).
type wireBatchResult struct {
	Results []index.Result `json:"results"`
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
	return wireQuery{Mode: mode, Attr: int64(attr), Params: wp, K: o.K}, nil
}

// wireToOptions decodes a leg request back into the compiled options
// the shard's index executes.
func wireToOptions(wq wireQuery) (history.AttrID, index.QueryOptions, error) {
	mode, err := wireToMode(wq.Mode)
	if err != nil {
		return 0, index.QueryOptions{}, err
	}
	o := index.QueryOptions{Mode: mode, Params: wireToParams(wq.Params), K: wq.K}
	return history.AttrID(wq.Attr), o, nil
}

// checkID rejects an attribute id a shard server has no business
// returning: one outside the corpus (it would index past the router's
// dataset) or one that shard i.ShardID does not own (it would duplicate
// or displace another shard's answer in the merge).
func (i Info) checkID(id history.AttrID) error {
	if id < 0 || int(id) >= i.Attributes {
		return fmt.Errorf("attribute id %d outside the corpus [0,%d)", id, i.Attributes)
	}
	if owner := history.ShardOf(id, i.Seed, i.Shards); owner != i.ShardID {
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

// readBatchResult decodes a /shard/batch response body from shard
// want.ShardID, which must answer exactly n entries and name only
// attributes that shard owns.
func readBatchResult(body io.Reader, n int, want Info) ([]index.Result, error) {
	var wr wireBatchResult
	if err := json.NewDecoder(body).Decode(&wr); err != nil {
		return nil, badResponse(err)
	}
	if len(wr.Results) != n {
		return nil, badResponse(fmt.Errorf("%d results for a %d-entry batch", len(wr.Results), n))
	}
	for _, res := range wr.Results {
		for _, id := range res.IDs {
			if err := want.checkID(id); err != nil {
				return nil, badResponse(err)
			}
		}
		for _, r := range res.Ranked {
			if err := want.checkID(r.ID); err != nil {
				return nil, badResponse(err)
			}
		}
	}
	return wr.Results, nil
}
