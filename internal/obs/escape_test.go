package obs

import (
	"strings"
	"testing"
)

// TestLabelEscapingRoundTrip drives hostile label values through the
// full path a scraper sees — registration, exposition rendering — and
// asserts the exposition carries each value escaped byte-for-byte and a
// snapshot finds the metric again by the original value.
func TestLabelEscapingRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		value   string
		escaped string // expected rendering inside the quotes
	}{
		{"plain", "forward", "forward"},
		{"backslash", `a\b`, `a\\b`},
		{"double_quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all_three", "\\\"\n", `\\\"\n`},
		{"trailing_backslash", `ends\`, `ends\\`},
		{"consecutive", `\\"`, `\\\\\"`},
		{"empty", "", ""},
		{"utf8", "héllo→", "héllo→"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			c := r.Counter("tind_test_escape_total", "Escape probe.", L("v", tc.value))
			c.Inc()

			// Exposition renders the escaped form.
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatalf("WritePrometheus: %v", err)
			}
			want := `tind_test_escape_total{v="` + tc.escaped + `"} 1`
			if !strings.Contains(b.String(), want+"\n") {
				t.Fatalf("exposition missing %q:\n%s", want, b.String())
			}

			// The snapshot stores the same rendered key.
			if _, ok := r.Snapshot().Get("tind_test_escape_total", L("v", tc.value)); !ok {
				t.Fatal("snapshot lookup by original labels failed")
			}
		})
	}
}

// TestRelookupAllocs bounds what re-resolving a registered labelled
// counter costs — what tindserve pays per admitted query for
// tind_http_requests_total{endpoint,code}. Rendering the label key must
// not rebuild the escaper on every call.
func TestRelookupAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tind_test_requests_total", "Requests.", L("endpoint", "/search"), L("code", "200"))
	allocs := testing.AllocsPerRun(200, func() {
		if r.Counter("tind_test_requests_total", "Requests.", L("endpoint", "/search"), L("code", "200")) != c {
			t.Fatal("re-registration returned a different counter")
		}
	})
	if allocs > 4 {
		t.Errorf("re-resolving a two-label counter allocates %v times, want <= 4", allocs)
	}
}
