package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// errEnvelope extracts the {"error": {"code", "message"}} envelope every
// failure response must carry, failing the test if the shape is wrong.
func errEnvelope(t *testing.T, out map[string]interface{}) (code, message string) {
	t.Helper()
	env, ok := out["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("error envelope missing or flat: %v", out)
	}
	code, _ = env["code"].(string)
	message, _ = env["message"].(string)
	if code == "" || message == "" {
		t.Fatalf("error envelope incomplete: %v", env)
	}
	return code, message
}

// TestMalformedParameters drives every query endpoint through the shared
// decode→compile path with malformed input: all of them must answer 400
// with the invalid_parameter code and a message naming the offending
// parameter.
func TestMalformedParameters(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		path    string
		wantMsg string // substring of the envelope message
	}{
		{"/search", "attr"},
		{"/search?attr=no-such-page", "no attribute matches"},
		{"/search?attr=99999", "out of range"},
		{"/search?attr=-1", "out of range"},
		{"/search?attr=0&eps=-1", "eps"},
		{"/search?attr=0&eps=abc", "eps"},
		{"/search?attr=0&delta=-3", "delta"},
		{"/search?attr=0&delta=x", "delta"},
		// Rejected by the engine, not by compile: index.ErrInvalidOptions
		// must map to 400 on this surface too (it used to be a 500 here and
		// a 400 on the shard RPC).
		{"/search?attr=0&delta=2000000000000", "delta"},
		{"/reverse?attr=0&eps=nope", "eps"},
		{"/reverse?attr=99999", "out of range"},
		{"/topk?attr=0&k=0", "k"},
		{"/topk?attr=0&k=-2", "k"},
		{"/topk?attr=0&k=1001", "k"},
		{"/topk?attr=0&k=abc", "k"},
		{"/topk?attr=0&delta=-1", "delta"},
		{"/explain?rhs=0", "lhs"},
		{"/explain?lhs=0", "rhs"},
		{"/explain?lhs=0&rhs=1&eps=-2", "eps"},
		{"/attr?attr=99999", "out of range"},
		{"/attr", "attr"},
	}
	for _, tc := range cases {
		out := getJSON(t, ts.URL+tc.path, http.StatusBadRequest)
		code, msg := errEnvelope(t, out)
		if code != "invalid_parameter" {
			t.Errorf("%s: code %q, want invalid_parameter", tc.path, code)
		}
		if !strings.Contains(msg, tc.wantMsg) {
			t.Errorf("%s: message %q does not name %q", tc.path, msg, tc.wantMsg)
		}
	}
}

// TestBatchEndpointMatchesSingleQueries posts a mixed-mode batch and
// checks each entry's body against the matching single-query endpoint:
// identical result ids, identical echo fields.
func TestBatchEndpointMatchesSingleQueries(t *testing.T) {
	_, ts := testServer(t)
	body := `{"queries": [
		{"attr": "0", "eps": 3, "delta": 7},
		{"attr": "1", "mode": "reverse", "eps": 3},
		{"attr": "derived", "mode": "topk", "k": 3},
		{"attr": "2", "mode": "forward"}
	]}`
	singles := []string{
		"/search?attr=0&eps=3&delta=7",
		"/reverse?attr=1&eps=3",
		"/topk?attr=derived&k=3",
		"/search?attr=2",
	}

	out := postJSON(t, ts.URL+"/query/batch", body, http.StatusOK)
	if out["batch_size"].(float64) != 4 {
		t.Fatalf("batch_size: %v", out["batch_size"])
	}
	results, ok := out["results"].([]interface{})
	if !ok || len(results) != 4 {
		t.Fatalf("results shape: %v", out["results"])
	}
	for i, single := range singles {
		want := getJSON(t, ts.URL+single, http.StatusOK)
		got, ok := results[i].(map[string]interface{})
		if !ok {
			t.Fatalf("entry %d not an object", i)
		}
		if fmt.Sprint(got["query"]) != fmt.Sprint(want["query"]) {
			t.Errorf("entry %d: query echo %v, single %v", i, got["query"], want["query"])
		}
		if fmt.Sprint(got["results"]) != fmt.Sprint(want["results"]) {
			t.Errorf("entry %d (%s): batch results deviate from single query\nbatch:  %v\nsingle: %v",
				i, single, got["results"], want["results"])
		}
		if got["eps"] != want["eps"] || got["delta"] != want["delta"] {
			t.Errorf("entry %d: parameter echo (%v, %v) vs (%v, %v)",
				i, got["eps"], got["delta"], want["eps"], want["delta"])
		}
	}
	if out["elapsed_ms"].(float64) < 0 {
		t.Fatalf("elapsed_ms: %v", out["elapsed_ms"])
	}
}

// TestBatchEndpointRejectsMalformedRequests exercises the batch-level
// validation: body shape, size bound, and per-entry compile failures
// that must name the offending entry.
func TestBatchEndpointRejectsMalformedRequests(t *testing.T) {
	_, ts := testServer(t)
	huge := `{"queries": [` + strings.Repeat(`{"attr": "0"},`, 256) + `{"attr": "0"}]}`
	cases := []struct {
		name    string
		body    string
		wantMsg string
	}{
		{"garbage body", `{"queries": nope`, "bad request body"},
		{"unknown field", `{"batch": []}`, "bad request body"},
		{"empty batch", `{"queries": []}`, "empty"},
		{"oversized batch", huge, "exceeds the limit"},
		{"entry missing attr", `{"queries": [{"attr": "0"}, {"mode": "forward"}]}`, "query 1"},
		{"entry bad mode", `{"queries": [{"attr": "0", "mode": "sideways"}]}`, "query 0"},
		{"entry bad eps", `{"queries": [{"attr": "0", "eps": -4}]}`, "query 0"},
		{"entry bad k", `{"queries": [{"attr": "0", "mode": "topk", "k": 0}]}`, "query 0"},
		{"entry out of range", `{"queries": [{"attr": "99999"}]}`, "out of range"},
	}
	for _, tc := range cases {
		out := postJSON(t, ts.URL+"/query/batch", tc.body, http.StatusBadRequest)
		code, msg := errEnvelope(t, out)
		if code != "invalid_parameter" {
			t.Errorf("%s: code %q, want invalid_parameter", tc.name, code)
		}
		if !strings.Contains(msg, tc.wantMsg) {
			t.Errorf("%s: message %q does not contain %q", tc.name, msg, tc.wantMsg)
		}
	}
}
