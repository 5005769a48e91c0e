package router

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"tind/internal/shard"
)

// Options configures a Router.
type Options struct {
	// Shards[s] lists the base URLs ("http://host:port") of shard s's
	// replicas. Every shard needs at least one; replicas of one shard
	// must serve the same (shard id, shard count, seed, corpus).
	Shards [][]string
	// LegTimeout bounds each scatter-leg attempt. Zero means no per-leg
	// bound — only the caller's context limits a leg.
	LegTimeout time.Duration
	// Retries is the number of additional attempts after a failed one,
	// each against the then-least-loaded replica. Negative disables
	// retries; zero means the default of 1.
	Retries int
	// Client is the HTTP client for all shard traffic; nil means a
	// dedicated default client.
	Client *http.Client
}

// Router is the scatter-gather head of the distributed deployment: the
// shard.Coordinator — the same scatter, failure classification and merge
// the in-process ShardedIndex runs — over HTTP legs to shard servers
// (see httpLeg for what the transport adds). Query, QueryBatch,
// AllPairsContext, Stats and NumShards are the Coordinator's own; the
// Router itself only validates the topology and reports which shards were
// down as of the last contact (Degraded, Probe).
type Router struct {
	*shard.Coordinator
	legs []*httpLeg
}

// New validates the topology and returns a ready Router. Every shard
// must have at least one reachable replica answering /shard/info, and
// every reachable replica must identify as the shard it is configured as
// and agree with all others on (shard count, seed, corpus size, horizon)
// — a mis-deployed topology fails loudly here instead of silently
// dropping or misrouting results at query time.
func New(ctx context.Context, opt Options) (*Router, error) {
	n := len(opt.Shards)
	if n < 1 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	retries := opt.Retries
	if retries == 0 {
		retries = 1
	} else if retries < 0 {
		retries = 0
	}
	r := &Router{legs: make([]*httpLeg, n)}
	legs := make([]shard.Leg, n)
	// ref is the topology every replica is held to: shard count as
	// configured; seed, corpus size and horizon as the first replica
	// reached states them.
	var ref *Info
	for s, urls := range opt.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		l := &httpLeg{client: client, retries: retries, legTimeout: opt.LegTimeout}
		var lastErr error
		for _, u := range urls {
			rep := &replica{base: strings.TrimRight(u, "/")}
			l.replicas = append(l.replicas, rep)
			var info Info
			if lastErr = l.get(ctx, rep, "/shard/info", &info); lastErr != nil {
				continue
			}
			if ref == nil {
				ref = &Info{Shards: n, Seed: info.Seed, Attributes: info.Attributes, Horizon: info.Horizon}
			}
			l.want = *ref
			l.want.ShardID = s
			info.Owned = 0 // the one field that legitimately differs per shard
			if info != l.want {
				return nil, fmt.Errorf("router: %s identifies as %+v, want %+v", rep.base, info, l.want)
			}
		}
		if l.want == (Info{}) { // set from the first replica that answered
			return nil, fmt.Errorf("router: shard %d: no replica reachable: %v", s, lastErr)
		}
		r.legs[s], legs[s] = l, l
	}
	r.Coordinator = shard.NewCoordinator(legs, ref.Attributes)
	return r, nil
}

// Info returns the validated topology reference (as shard 0 states it,
// less the shard-specific Owned count).
func (r *Router) Info() Info { return r.legs[0].want }

// Degraded returns the ids of shards considered down as of the last
// contact (scatter leg or Probe), ascending. Empty means every shard
// answered its most recent call.
func (r *Router) Degraded() []int {
	var out []int
	for s, l := range r.legs {
		if l.down.Load() {
			out = append(out, s)
		}
	}
	return out
}

// Probe actively refreshes the down state by fetching /shard/info from
// every shard (any replica counts) and returns the refreshed Degraded
// list. Readiness endpoints call this so a dead shard surfaces without
// waiting for query traffic to trip over it.
func (r *Router) Probe(ctx context.Context) []int {
	var wg sync.WaitGroup
	for _, l := range r.legs {
		wg.Add(1)
		go func(l *httpLeg) {
			defer wg.Done()
			l.probe(ctx)
		}(l)
	}
	wg.Wait()
	return r.Degraded()
}
