// Wide-event wiring of tindserve: the query middleware records one
// structured event per query/batch into the process-wide obs ring
// (served at GET /debug/events).
package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tind/internal/obs"
	"tind/internal/router"
)

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
