// Query API surface of tindserve: the wire-form request type shared by
// every query endpoint, the single decode→compile path that turns it
// into an index.QueryOptions, and the handlers themselves (the JSON
// error envelope is internal/router's, shared with the /shard RPC). GET
// /search, /reverse and /topk are one handler parameterized by mode,
// running the query as a QueryBatch of one entry; POST /query/batch
// decodes a list of the same wire queries and executes them as one
// QueryBatch call, so the whole request reads one consistent snapshot of
// the index. Both render every entry through renderResult.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/router"
	"tind/internal/timeline"
)

// rawQuery is the wire form of one query before resolution: attribute
// references as the client sent them, the mode, and the optional search
// knobs. GET endpoints fill it from URL parameters, POST /query/batch
// decodes it from JSON — both then validate through the same compile
// path, so a parameter rejected on one endpoint is rejected identically
// on all of them.
//
// Pointers distinguish "absent" (paper default applies) from "zero".
type rawQuery struct {
	Attr  string   `json:"attr,omitempty"`
	LHS   string   `json:"lhs,omitempty"` // /explain only
	RHS   string   `json:"rhs,omitempty"` // /explain only
	Mode  string   `json:"mode,omitempty"`
	Eps   *float64 `json:"eps,omitempty"`
	Delta *int     `json:"delta,omitempty"`
	K     *int     `json:"k,omitempty"`
}

// decodeRawQuery reads the URL parameters of a GET query endpoint into
// the wire struct. Only syntax is checked here ("is it a number");
// range validation lives in compile so JSON-borne batch entries hit the
// same checks.
func decodeRawQuery(r *http.Request) (rawQuery, error) {
	var raw rawQuery
	qs := r.URL.Query()
	raw.Attr = qs.Get("attr")
	raw.LHS = qs.Get("lhs")
	raw.RHS = qs.Get("rhs")
	if v := qs.Get("eps"); v != "" {
		e, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return raw, fmt.Errorf("bad eps %q", v)
		}
		raw.Eps = &e
	}
	if v := qs.Get("delta"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			return raw, fmt.Errorf("bad delta %q", v)
		}
		raw.Delta = &d
	}
	if v := qs.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return raw, fmt.Errorf("bad k %q", v)
		}
		raw.K = &k
	}
	return raw, nil
}

// maxK bounds the k parameter of top-k queries.
const maxK = 1000

// compileParams validates eps/delta against the paper's defaults.
func (c *corpus) compileParams(raw rawQuery) (core.Params, error) {
	p := core.DefaultDays(c.ds.Horizon())
	if raw.Eps != nil {
		if *raw.Eps < 0 {
			return p, fmt.Errorf("bad eps %g: must be non-negative", *raw.Eps)
		}
		p.Epsilon = *raw.Eps
	}
	if raw.Delta != nil {
		if *raw.Delta < 0 {
			return p, fmt.Errorf("bad delta %d: must be non-negative", *raw.Delta)
		}
		p.Delta = timeline.Time(*raw.Delta)
	}
	return p, nil
}

// compile resolves one wire query against the corpus: attribute lookup,
// mode selection and full parameter validation. Every query endpoint —
// single or batched — goes through here, so malformed requests are
// rejected with the same messages everywhere.
func (c *corpus) compile(raw rawQuery) (*history.History, index.QueryOptions, error) {
	var o index.QueryOptions
	q, err := c.resolve(raw.Attr)
	if err != nil {
		return nil, o, err
	}
	p, err := c.compileParams(raw)
	if err != nil {
		return nil, o, err
	}
	o.Params = p
	switch raw.Mode {
	case "", "forward":
		o.Mode = index.ModeForward
	case "reverse":
		o.Mode = index.ModeReverse
	case "topk":
		o.Mode = index.ModeTopK
		o.K = 10
		if raw.K != nil {
			if *raw.K <= 0 || *raw.K > maxK {
				return nil, o, fmt.Errorf("bad k %d: must be in [1,%d]", *raw.K, maxK)
			}
			o.K = *raw.K
		}
		// Top-k is one exact scan ranked by violation weight; it has no
		// budget, so a client-supplied eps does not apply.
		o.Params = core.Params{Delta: p.Delta, Weight: p.Weight}
	default:
		return nil, o, fmt.Errorf("bad mode %q: want forward, reverse or topk", raw.Mode)
	}
	return q, o, nil
}

// attrResult is one attribute in a JSON response.
type attrResult struct {
	ID     history.AttrID `json:"id"`
	Page   string         `json:"page"`
	Table  string         `json:"table"`
	Column string         `json:"column"`
}

func (c *corpus) attrResult(id history.AttrID) attrResult {
	m := c.ds.Attr(id).Meta()
	return attrResult{ID: id, Page: m.Page, Table: m.Table, Column: m.Column}
}

// resolve finds an attribute by id or page substring. The substring scan
// runs over the precomputed lowercased page titles, keeping the original
// first-match semantics without per-request lowercasing of the corpus.
func (c *corpus) resolve(arg string) (*history.History, error) {
	if arg == "" {
		return nil, fmt.Errorf("missing attr parameter")
	}
	if id, err := strconv.Atoi(arg); err == nil {
		if id < 0 || id >= c.ds.Len() {
			return nil, fmt.Errorf("attribute id %d out of range [0,%d)", id, c.ds.Len())
		}
		return c.ds.Attr(history.AttrID(id)), nil
	}
	needle := strings.ToLower(arg)
	for i, page := range c.pagesLower {
		if strings.Contains(page, needle) {
			return c.ds.Attr(history.AttrID(i)), nil
		}
	}
	return nil, fmt.Errorf("no attribute matches %q", arg)
}

// renderResult builds the response body of one executed query, shaped
// by mode: ranked results for top-k, the id set plus funnel counters
// otherwise. Shared between the single-query endpoints and the per-
// entry bodies of /query/batch.
func (c *corpus) renderResult(q *history.History, o index.QueryOptions, res index.Result) map[string]interface{} {
	if o.Mode == index.ModeTopK {
		type rankedResult struct {
			attrResult
			Violation float64 `json:"violation"`
		}
		results := make([]rankedResult, 0, len(res.Ranked))
		for _, rr := range res.Ranked {
			results = append(results, rankedResult{attrResult: c.attrResult(rr.ID), Violation: rr.Violation})
		}
		return map[string]interface{}{
			"query":   c.attrResult(q.ID()),
			"results": results,
		}
	}
	results := make([]attrResult, 0, len(res.IDs))
	for _, id := range res.IDs {
		results = append(results, c.attrResult(id))
	}
	return map[string]interface{}{
		"query":      c.attrResult(q.ID()),
		"eps":        o.Params.Epsilon,
		"delta":      int(o.Params.Delta),
		"results":    results,
		"elapsed_ms": float64(res.Stats.Elapsed) / float64(time.Millisecond),
		"candidates": res.Stats.InitialCandidates,
		"validated":  res.Stats.Validated,
	}
}

// handleQuery serves GET /search, /reverse and /topk: one body, three
// routes, distinguished only by the mode stamped onto the decoded wire
// query before the shared compile step.
func (s *server) handleQuery(mode string) queryHandler {
	return func(c *corpus, w http.ResponseWriter, r *http.Request) {
		raw, err := decodeRawQuery(r)
		if err != nil {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, err)
			return
		}
		raw.Mode = mode
		q, o, err := c.compile(raw)
		if err != nil {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, err)
			return
		}
		// A lone query is a batch of one on every engine; a run that never
		// started leaves no result behind, only the error.
		var res index.Result
		results, err := c.idx.QueryBatch(r.Context(), []index.BatchQuery{{Query: q, Options: o}}, index.BatchOptions{})
		if len(results) == 1 {
			res = results[0]
		}
		noteStats(r, &res.Stats)
		noteQuery(r, obs.EventQuery, mode, 0)
		if err != nil && !errors.Is(err, index.ErrPartialResult) {
			router.QueryError(w, err)
			return
		}
		body := c.renderResult(q, o, res)
		if err != nil {
			// Some shards stayed unreachable after replica retries: the
			// healthy shards' answer is correct but incomplete. 200 with an
			// explicit marker — a silent subset would be indistinguishable
			// from a full answer, and a 500 would throw away good results.
			body["partial"] = true
			body["shards_failed"] = failedShards(res.Stats.PerShard)
		}
		router.WriteJSON(w, body)
	}
}

// failedShards lists the shards whose scatter leg failed, from the
// per-shard attribution of a partial result.
func failedShards(per []index.ShardStat) []int {
	down := []int{}
	for _, st := range per {
		if st.Failed() {
			down = append(down, st.Shard)
		}
	}
	return down
}

// batchRequest is the POST /query/batch body: a list of wire-form
// queries executed as one index.QueryBatch call.
//
//	{"queries": [{"attr": "0", "mode": "forward", "eps": 3},
//	             {"attr": "List of D0", "mode": "topk", "k": 5}]}
type batchRequest struct {
	Queries []rawQuery `json:"queries"`
}

// batchMaxQueries bounds a /query/batch request; larger workloads
// should page, not monopolize the limiter slot. It is the shard RPC's
// entry cap, so a router forwards whatever it accepts in one leg request.
const batchMaxQueries = index.BlockEntries

// batchMaxBody bounds the /query/batch request body.
const batchMaxBody = 1 << 20

// handleBatch decodes a batchRequest, compiles every entry through the
// same path as the single-query endpoints, and answers with one body
// per entry in request order — each shaped exactly like the matching
// single endpoint's response — plus the batch-level wall time.
func (s *server) handleBatch(c *corpus, w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, batchMaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, errors.New("empty query batch"))
		return
	}
	if len(req.Queries) > batchMaxQueries {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), batchMaxQueries))
		return
	}
	if a, ok := w.(*admitted); ok && !a.Admit(len(req.Queries)) {
		return
	}
	batch := make([]index.BatchQuery, len(req.Queries))
	queries := make([]*history.History, len(req.Queries))
	for i, raw := range req.Queries {
		q, o, err := c.compile(raw)
		if err != nil {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("query %d: %w", i, err))
			return
		}
		batch[i] = index.BatchQuery{Query: q, Options: o}
		queries[i] = q
	}
	// The aggregate is noted before execution so even an errored or
	// timed-out batch reaches the event ring with whatever the engine
	// accumulated (stats stay zero if it never ran).
	agg := &index.QueryStats{}
	noteStats(r, agg)
	noteQuery(r, obs.EventBatch, "batch", len(batch))
	start := time.Now()
	results, err := c.idx.QueryBatch(r.Context(), batch, index.BatchOptions{})
	elapsed := time.Since(start)
	*agg = aggregateBatchStats(results, elapsed)
	if err != nil && !errors.Is(err, index.ErrPartialResult) {
		router.QueryError(w, err)
		return
	}
	bodies := make([]map[string]interface{}, len(results))
	for i, res := range results {
		bodies[i] = c.renderResult(queries[i], batch[i].Options, res)
	}
	out := map[string]interface{}{
		"batch_size": len(bodies),
		"elapsed_ms": float64(elapsed) / float64(time.Millisecond),
		"results":    bodies,
	}
	if err != nil {
		// Same contract as the single-query endpoints: a batch executed
		// over a degraded cluster answers 200 with every entry's healthy-
		// shard results and a batch-level partial marker (the scatter legs
		// cover the whole batch, so the failed shards are the same for
		// every entry).
		out["partial"] = true
		out["shards_failed"] = failedShards(agg.PerShard)
	}
	router.WriteJSON(w, out)
}

// aggregateBatchStats folds per-entry batch results into one batch-level
// QueryStats for the wide event: funnel counts and phase timings sum
// across entries, and so does each shard's row of the per-shard
// attribution — one leg carried every entry, so the rows agree on the
// leg's wall time and error, but each entry reports its own share of the
// leg's work (QueryStats.Add).
func aggregateBatchStats(results []index.Result, elapsed time.Duration) index.QueryStats {
	var agg index.QueryStats
	for i := range results {
		agg.Add(&results[i].Stats)
	}
	agg.Elapsed, agg.Timings.Total = elapsed, elapsed
	return agg
}

func (s *server) handleExplain(c *corpus, w http.ResponseWriter, r *http.Request) {
	raw, err := decodeRawQuery(r)
	if err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, err)
		return
	}
	lhs, err := c.resolve(raw.LHS)
	if err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("lhs: %w", err))
		return
	}
	rhs, err := c.resolve(raw.RHS)
	if err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("rhs: %w", err))
		return
	}
	p, err := c.compileParams(raw)
	if err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, err)
		return
	}
	type violation struct {
		FromDay int     `json:"from_day"`
		ToDay   int     `json:"to_day"` // exclusive
		Weight  float64 `json:"weight"`
		Missing string  `json:"missing_value"`
	}
	vios := core.Explain(lhs, rhs, p)
	out := make([]violation, 0, len(vios))
	var total float64
	for _, v := range vios {
		out = append(out, violation{
			FromDay: int(v.Interval.Start),
			ToDay:   int(v.Interval.End),
			Weight:  v.Weight,
			Missing: c.ds.Dict().String(v.Missing),
		})
		total += v.Weight
	}
	router.WriteJSON(w, map[string]interface{}{
		"lhs":             c.attrResult(lhs.ID()),
		"rhs":             c.attrResult(rhs.ID()),
		"violations":      out,
		"total_violation": total,
		"eps":             p.Epsilon,
		"holds":           total <= p.Epsilon,
	})
}

func (s *server) handleAttr(c *corpus, w http.ResponseWriter, r *http.Request) {
	h, err := c.resolve(r.URL.Query().Get("attr"))
	if err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, err)
		return
	}
	type version struct {
		Day    int      `json:"day"`
		Values []string `json:"values"`
	}
	versions := make([]version, 0, h.NumVersions())
	for i := 0; i < h.NumVersions(); i++ {
		v := h.Version(i)
		versions = append(versions, version{
			Day:    int(v.Start),
			Values: c.ds.Dict().Strings(v.Values),
		})
	}
	router.WriteJSON(w, map[string]interface{}{
		"attr":          c.attrResult(h.ID()),
		"observed_from": int(h.ObservedFrom()),
		"observed_to":   int(h.ObservedUntil()),
		"versions":      versions,
	})
}
