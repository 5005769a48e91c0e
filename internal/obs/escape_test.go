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
