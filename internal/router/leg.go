package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
)

// replica is one backend of one shard with its in-flight counter, the
// load signal behind least-loaded replica picking.
type replica struct {
	base     string
	inflight atomic.Int64
}

// httpLeg is the network transport of shard.Leg: one shard of the
// partition reached through its replicas' /shard/* RPC. It owns
// everything the network makes necessary — replica pick, retries, the leg
// deadline, the wire codec and the validation of returned bytes — and
// reports failures in the Coordinator's taxonomy:
//
//   - A failure the request itself caused (invalid_parameter, or the
//     caller's context ending) comes back as the typed index error:
//     retrying or degrading cannot help.
//   - A failure the shard caused (unreachable, 5xx, not_ready, leg
//     deadline, a response that cannot be trusted) comes back wrapping
//     shard.ErrLegUnavailable after bounded retries across the replicas.
//
// The down flag records which kind the last contact was, for readiness
// reporting (Router.Degraded).
type httpLeg struct {
	// want is what every replica of this shard must identify as, and what
	// every id it returns is held to.
	want       Info
	replicas   []*replica
	client     *http.Client
	retries    int
	legTimeout time.Duration
	down       atomic.Bool
}

// setDown records the shard's state as of the last contact.
func (l *httpLeg) setDown(down bool) {
	if l.down.Swap(down) == down {
		return
	}
	if down {
		mShardsDown.Add(1)
	} else {
		mShardsDown.Add(-1)
	}
}

// legContext derives the per-attempt context from the caller's.
func (l *httpLeg) legContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.legTimeout > 0 {
		return context.WithTimeout(ctx, l.legTimeout)
	}
	return context.WithCancel(ctx)
}

// pick returns the shard's replicas ordered by current in-flight load,
// ties broken by configuration order — the retry loop walks this order
// so the first attempt goes to the least-loaded replica and retries hit
// the others before reusing one.
func (l *httpLeg) pick() []*replica {
	out := append([]*replica(nil), l.replicas...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].inflight.Load() < out[j].inflight.Load()
	})
	return out
}

// get fetches one replica's GET endpoint into out under the leg deadline.
func (l *httpLeg) get(ctx context.Context, rep *replica, path string, out interface{}) error {
	actx, cancel := l.legContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, rep.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", rep.base, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: bad %s body: %v", rep.base, path, err)
	}
	return nil
}

// probe refreshes the down flag from /shard/info: any answering replica
// counts as up.
func (l *httpLeg) probe(ctx context.Context) {
	down := true
	for _, rep := range l.pick() {
		var info Info
		if l.get(ctx, rep, "/shard/info", &info) == nil {
			down = false
			break
		}
	}
	l.setDown(down)
}

// call runs one leg RPC: POST body to the least-loaded replica and hand
// the 200 response to decode, with bounded retries across replicas on
// shard-caused failures (decode rejecting the response is one).
func (l *httpLeg) call(ctx context.Context, path string, body interface{}, decode func(io.Reader) error) (err error) {
	defer func() {
		switch {
		case err == nil:
			mLegsOK.Inc()
			l.setDown(false)
		case errors.Is(err, shard.ErrLegUnavailable):
			mLegsError.Inc()
			l.setDown(true)
		default:
			// A request-caused failure says nothing about the shard.
			mLegsError.Inc()
		}
	}()
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	order := l.pick()
	var lastErr error
	for a := 0; a <= l.retries; a++ {
		if ctx.Err() != nil {
			return ctxError(ctx, lastErr)
		}
		if a > 0 {
			mLegRetries.Inc()
		}
		rep := order[a%len(order)]
		err := l.attempt(ctx, rep, path, buf, decode)
		if err == nil || !errors.Is(err, shard.ErrLegUnavailable) {
			return err
		}
		lastErr = fmt.Errorf("%s: %w", rep.base, err)
	}
	return lastErr
}

// ctxError maps an ended caller context onto the typed index errors,
// carrying the last transport error (nil before the first attempt) as
// detail.
func ctxError(ctx context.Context, last error) error {
	return fmt.Errorf("%w (leg abandoned; last transport error: %v)", index.CtxErr(ctx), last)
}

// attempt is one HTTP exchange with one replica.
func (l *httpLeg) attempt(ctx context.Context, rep *replica, path string, body []byte, decode func(io.Reader) error) error {
	actx, cancel := l.legContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rep.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	rep.inflight.Add(1)
	t0 := time.Now()
	resp, err := l.client.Do(req)
	rep.inflight.Add(-1)
	mLegSeconds.ObserveDuration(time.Since(t0))
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context ended, not just this attempt's leg
			// deadline: the whole scatter is over.
			return ctxError(ctx, err)
		}
		// Unreachable replica or leg deadline.
		return fmt.Errorf("%w: %v", shard.ErrLegUnavailable, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusOK {
		return decode(resp.Body)
	}
	return legError(resp.Status, resp.Body, ctx.Err() != nil)
}

// drainClose reads a reply to EOF before closing it, so the client keeps
// the connection alive: json.Decoder stops at the end of the value, short
// of a chunked reply's terminator, and a body closed early costs the
// connection. The drain is bounded by the RPC body cap, so a replica that
// keeps talking only loses its connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, shardMaxBody)
	body.Close()
}

// legError classifies a non-200 leg response by its error envelope.
func legError(status string, body io.Reader, callerDone bool) error {
	var we wireError
	_ = json.NewDecoder(body).Decode(&we) // an unreadable envelope falls back to the status line
	msg := we.Error.Message
	if msg == "" {
		msg = status
	}
	switch we.Error.Code {
	case CodeInvalidParameter:
		// No replica will ever accept this request.
		return fmt.Errorf("%w: %s", index.ErrInvalidOptions, msg)
	case CodeCanceled:
		if callerDone {
			return fmt.Errorf("%w: %s", index.ErrCanceled, msg)
		}
	}
	// not_ready, deadline_exceeded, saturated, internal, anything else:
	// this replica can't answer right now — retry, then degrade.
	return fmt.Errorf("%w: %s: %s", shard.ErrLegUnavailable, status, msg)
}

// corpusAttr resolves a query history to its global attribute id. The
// wire protocol speaks corpus ids only, so the router serves queries
// for corpus attributes — the whole tindserve surface — but not
// arbitrary external histories.
func (l *httpLeg) corpusAttr(q *history.History) (history.AttrID, error) {
	if q == nil {
		return 0, fmt.Errorf("%w: nil query history", index.ErrInvalidOptions)
	}
	return q.ID(), l.checkAttr(q.ID())
}

func (l *httpLeg) checkAttr(id history.AttrID) error {
	if id < 0 || int(id) >= l.want.Attributes {
		return fmt.Errorf("%w: router queries must reference corpus attributes (id %d not in [0,%d))",
			index.ErrInvalidOptions, id, l.want.Attributes)
	}
	return nil
}

// QueryBatch implements shard.Leg over POST /shard/batch, the one leg
// RPC: the whole batch — a lone query is a batch of one — crosses the wire
// once, by attribute id.
func (l *httpLeg) QueryBatch(ctx context.Context, batch []index.BatchQuery, _ index.BatchOptions) (results []index.Result, err error) {
	wb := wireBatch{Queries: make([]wireQuery, len(batch))}
	for i, bq := range batch {
		attr := bq.ID
		if bq.ByID {
			err = l.checkAttr(attr)
		} else {
			attr, err = l.corpusAttr(bq.Query)
		}
		if err == nil {
			wb.Queries[i], err = queryToWire(attr, bq.Options)
		}
		if err != nil {
			return nil, index.EntryErr(len(batch), i, err)
		}
	}
	err = l.call(ctx, "/shard/batch", wb, func(body io.Reader) (err error) {
		results, err = readBatchResult(body, len(batch), l.want)
		return err
	})
	return results, err
}

// Stats implements shard.Leg over GET /shard/stats, best-effort: the
// first replica that answers within five seconds wins, an unreachable
// shard contributes nothing.
func (l *httpLeg) Stats() index.BuildStats {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, rep := range l.pick() {
		var st index.BuildStats
		if l.get(ctx, rep, "/shard/stats", &st) == nil {
			return st
		}
	}
	return index.BuildStats{}
}
