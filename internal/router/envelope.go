package router

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"tind/internal/index"
)

// Error codes of the JSON error envelope every tind HTTP surface speaks —
// tindserve's public endpoints and the /shard/* RPC alike. Every failure
// response has the shape {"error": {"code": "...", "message": "..."}};
// the code is the machine-readable contract (clients, and the Router's
// leg classification, branch on it), the message is for humans and may
// change freely.
const (
	CodeInvalidParameter = "invalid_parameter" // malformed or out-of-range request input
	CodeNotReady         = "not_ready"         // index still building or service draining
	CodeSaturated        = "saturated"         // load shed by the concurrency limiter
	CodeDeadlineExceeded = "deadline_exceeded" // query deadline expired mid-flight
	CodeCanceled         = "canceled"          // client went away before completion
	CodeNotImplemented   = "not_implemented"   // endpoint disabled by configuration
	CodeRejected         = "rejected"          // semantically invalid ingest batch
	CodeInternal         = "internal"          // anything else; check the server log
)

// StatusClientClosedRequest is nginx's non-standard code for "client
// closed the connection before the response was ready"; used for
// canceled queries so they are distinguishable from server faults.
const StatusClientClosedRequest = 499

// wireError is the JSON error envelope.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// HTTPError writes the error envelope with the given status and code.
func HTTPError(w http.ResponseWriter, status int, code string, err error) {
	var we wireError
	we.Error.Code = code
	we.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(we)
}

// QueryError maps a failed query onto the envelope: malformed options are
// the client's fault (400), deadline expiry is a 504 the client can act
// on, a disconnected client gets the 499 convention, anything else is a
// 500. One mapping for every surface, so the Router classifies a leg
// identically against a shard server and a full tindserve.
func QueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, index.ErrInvalidOptions):
		HTTPError(w, http.StatusBadRequest, CodeInvalidParameter, err)
	case errors.Is(err, index.ErrDeadlineExceeded):
		HTTPError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, err)
	case errors.Is(err, index.ErrCanceled):
		HTTPError(w, StatusClientClosedRequest, CodeCanceled, err)
	default:
		HTTPError(w, http.StatusInternalServerError, CodeInternal, err)
	}
}

// WriteJSON writes v as a 200 JSON body.
func WriteJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "err", err)
	}
}
