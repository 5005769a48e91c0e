package index

import (
	"context"
	"errors"
	"fmt"
)

// Typed query-termination errors. The query entry points (Query,
// QueryBatch, AllPairsContext) return them — wrapped, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) hold —
// when the caller's context ends before the query completes. The
// accompanying Result carries the statistics accumulated up to the abort
// point, so callers can still see how far a shed query got.
var (
	// ErrCanceled reports that the query context was canceled (an
	// abandoned HTTP client, an operator interrupt, ...).
	ErrCanceled = errors.New("index: query canceled")
	// ErrDeadlineExceeded reports that the query ran past its deadline.
	ErrDeadlineExceeded = errors.New("index: query deadline exceeded")
)

// ErrInvalidOptions reports malformed index Options (Build) or
// QueryOptions (Query). Every validation failure wraps it, so callers
// can distinguish a configuration bug from a runtime failure with one
// errors.Is check.
var ErrInvalidOptions = errors.New("index: invalid options")

// ErrPartialResult reports a distributed query answered by only a subset
// of the shards: every leg that could complete contributed, the dead
// legs are marked in QueryStats.PerShard (ShardStat.Err), and the
// accompanying Result holds the union over the healthy shards. Callers
// decide whether a partial answer is acceptable — tindserve serves it
// with a partial marker instead of a 500, degraded but useful.
var ErrPartialResult = errors.New("index: partial result (one or more shards unavailable)")

// CtxErr translates the context's state into the package's typed errors.
// It returns nil while the context is live, so it doubles as the poll
// used at every cancellation checkpoint on the query path — and by the
// scatter-gather layers above, so a call abandoned between shard queries
// fails with the same typed errors as one abandoned inside them.
func CtxErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// typedErr wraps an error that surfaced from a cancellation hook into the
// package's typed errors. Raw context errors (from core's validation
// hooks) are classified like ctxErr; anything else passes through.
func typedErr(ctx context.Context, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		if cerr := CtxErr(ctx); cerr != nil {
			return cerr
		}
		return err
	}
}
