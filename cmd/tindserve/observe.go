// Wide-event and SLO wiring of tindserve: the query middleware records
// one structured event per query/batch into the process-wide obs ring
// (served at GET /debug/events), and the SLO engine turns the query
// latency histogram, the request counters, the ingester's staleness and
// the router's leg outcomes into multi-window burn-rate gauges (GET
// /slo, optionally feeding /readyz).
package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tind/internal/obs"
	"tind/internal/router"
)

// newSLOEngine declares the service objectives over the instruments
// that count their events:
//
//   - query_latency: at least 99% of admitted queries complete within
//     cfg.sloLatency, measured on tind_http_query_seconds (the HTTP
//     wall-time histogram, so shard stragglers and gather overhead
//     count).
//   - http_error_ratio: at most 0.1% of query requests answer 5xx,
//     counted where tind_http_requests_total is (countRequest).
//   - ingest_staleness: the installed ingester's oldest acknowledged-but-
//     unapplied delta stays inside cfg.maxStaleness (always healthy when
//     ingestion is disabled or unbounded).
//   - router_shard_availability (router mode only): at most 0.1% of
//     scatter legs fail after replica retries, measured on
//     tind_router_legs_total — partial results burn this budget even
//     though the HTTP answer is a 200, so a flapping shard cannot hide
//     behind the error-ratio objective.
//
// Burn rates are published as tind_slo_burn_rate{slo,window} and served
// on GET /slo; with cfg.sloBurnDegrade > 0 a sustained multi-window burn
// flips /readyz to degraded.
func (s *server) newSLOEngine() *obs.SLOEngine {
	cfg := s.cfg
	latencyThreshold := cfg.sloLatency.Seconds()
	objectives := []obs.SLO{
		{
			Name:        "query_latency",
			Description: fmt.Sprintf("99%% of queries complete within %v", cfg.sloLatency),
			Target:      0.99,
			Bad:         func() float64 { return mQuerySeconds.CountAbove(latencyThreshold) },
			Total:       func() float64 { return float64(mQuerySeconds.Count()) },
		},
		{
			Name:        "http_error_ratio",
			Description: "99.9% of query requests answer without a 5xx",
			Target:      0.999,
			Bad:         func() float64 { return float64(s.requests5xx.Value()) },
			Total:       func() float64 { return float64(s.requests.Value()) },
		},
		{
			Name:        "ingest_staleness",
			Description: fmt.Sprintf("99%% of checks find ingestion within the %v staleness bound", cfg.maxStaleness),
			Target:      0.99,
			Probe: func() bool {
				c := s.corpus.Load()
				if cfg.maxStaleness <= 0 || c == nil || c.ing == nil {
					return true
				}
				return c.ing.Stats().OldestPendingAge <= cfg.maxStaleness
			},
		},
	}
	if cfg.router != "" {
		objectives = append(objectives, obs.SLO{
			Name:        "router_shard_availability",
			Description: "99.9% of scatter legs answer after replica retries",
			Target:      0.999,
			Bad: func() float64 {
				_, failed := router.LegOutcomes()
				return float64(failed)
			},
			Total: func() float64 {
				ok, failed := router.LegOutcomes()
				return float64(ok + failed)
			},
		})
	}
	return obs.NewSLOEngine(obs.Default(), obs.SLOOptions{
		Interval:    cfg.sloInterval,
		DegradeBurn: cfg.sloBurnDegrade,
	}, objectives...)
}

// errorClass buckets an HTTP status for the wide event's error_class
// field: empty on success, otherwise a stable operator-facing class.
func errorClass(status int) string {
	switch {
	case status == router.StatusClientClosedRequest:
		return "canceled"
	case status == http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case status >= 500:
		return "internal"
	case status >= 400:
		return "client_error"
	default:
		return ""
	}
}

// recordQueryEvent builds and records the wide event of one completed
// query-shaped request: the one per-request record of where its time
// went. Called by the query middleware for every request whose handler
// noted stats.
func recordQueryEvent(note *queryNote, qid uint64, endpoint string, status int, elapsed time.Duration) {
	st := note.stats
	obs.Events().Record(obs.Event{
		Kind:       note.kind,
		QueryID:    qid,
		Mode:       note.mode,
		Endpoint:   endpoint,
		Status:     status,
		BatchSize:  note.batch,
		Duration:   elapsed,
		ErrorClass: errorClass(status),
		Candidates: st.InitialCandidates,
		Validated:  st.Validated,
		Results:    st.Results,
		Phases:     st.Timings,
		Shards:     st.PerShard,
	})
}

// eventsMaxLimit caps one /debug/events response.
const eventsMaxLimit = 1000

// handleEvents serves GET /debug/events: the wide-event ring, newest
// first, filterable by kind, mode, min_duration (Go duration syntax),
// error=true and limit. Registered outside the query middleware so it
// works while the index builds and is never shed — inspecting a
// degraded server must not depend on the server being healthy.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	f := obs.EventFilter{
		Kind:  qs.Get("kind"),
		Mode:  qs.Get("mode"),
		Limit: 100,
	}
	if v := qs.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("bad min_duration %q: %w", v, err))
			return
		}
		f.MinDuration = d
	}
	if v := qs.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("bad error %q: %w", v, err))
			return
		}
		f.ErrorsOnly = b
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > eventsMaxLimit {
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter,
				fmt.Errorf("bad limit %q: want an integer in [1,%d]", v, eventsMaxLimit))
			return
		}
		f.Limit = n
	}
	events := obs.Events().Select(f)
	router.WriteJSON(w, map[string]interface{}{
		"count":  len(events),
		"events": events,
	})
}

// handleSLO serves GET /slo: the latest multi-window evaluation of every
// declared objective. Like /debug/events it bypasses the query
// middleware — SLO state is exactly what an operator needs while the
// server is refusing queries.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	statuses := s.slo.Status()
	healthy := true
	for _, st := range statuses {
		if !st.Healthy {
			healthy = false
		}
	}
	router.WriteJSON(w, map[string]interface{}{
		"healthy":    healthy,
		"objectives": statuses,
	})
}
