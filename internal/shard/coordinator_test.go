package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tind/internal/index"
)

// TestOutcomePrefersRootCause pins the Coordinator's one classifier
// directly: a fatal error wins over induced cancellations and over
// degraded legs, an all-cancellation scatter reports the cancellation,
// and degraded legs alone make the call partial — or failed outright when
// no leg is left. (The scatter prefixes each leg error with its shard
// before classification; the drills in internal/router/faults_test.go
// assert the same rules end to end on both transports.)
func TestOutcomePrefersRootCause(t *testing.T) {
	root := errors.New("injected shard fault")
	canceled := fmt.Errorf("%w: leg canceled", index.ErrCanceled)
	down := fmt.Errorf("shard 1: %w: connection refused", ErrLegUnavailable)

	if err := outcome([]error{nil, nil}); err != nil {
		t.Fatalf("clean scatter: %v", err)
	}
	err := outcome([]error{canceled, fmt.Errorf("shard 1: %w", root), canceled})
	if !errors.Is(err, root) {
		t.Fatalf("mixed scatter returned %v, want the root cause", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("root cause error %q does not name shard 1", err)
	}
	if err := outcome([]error{canceled, nil}); !errors.Is(err, index.ErrCanceled) {
		t.Fatalf("all-cancellation scatter returned %v, want ErrCanceled", err)
	}
	if err := outcome([]error{down, root, nil}); !errors.Is(err, root) || errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("fatal + degraded scatter returned %v, want the fatal error and no partial", err)
	}
	if err := outcome([]error{down, canceled}); !errors.Is(err, index.ErrCanceled) {
		t.Fatalf("degraded + canceled scatter returned %v, want ErrCanceled", err)
	}
	if err := outcome([]error{nil, down}); !errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("one degraded leg returned %v, want ErrPartialResult", err)
	}
	if err := outcome([]error{down, down}); err == nil || errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("all legs degraded returned %v, want a plain failure", err)
	}
}
