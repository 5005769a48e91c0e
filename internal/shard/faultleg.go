package shard

import (
	"context"
	"sync/atomic"
	"time"

	"tind/internal/index"
)

// FaultLeg decorates a Leg with injectable latency and failure — the
// drill kit for the Coordinator's failure paths and for straggler
// attribution, identical on the in-process and the HTTP transport. A
// call first sleeps the configured delay, then fails with the configured
// error without reaching the wrapped leg; with neither set it is a
// pass-through. Safe to reconfigure concurrently with calls.
type FaultLeg struct {
	Leg
	delay atomic.Int64 // nanoseconds
	fault atomic.Pointer[error]
}

// InjectFaults wraps every leg of c in a FaultLeg and returns the
// wrappers, indexed by shard. Call it before c serves concurrent traffic.
func InjectFaults(c *Coordinator) []*FaultLeg {
	faults := make([]*FaultLeg, len(c.legs))
	for s, leg := range c.legs {
		faults[s] = &FaultLeg{Leg: leg}
		c.legs[s] = faults[s]
	}
	return faults
}

// SetDelay injects d of latency into every call of the leg; zero or
// negative clears it.
func (f *FaultLeg) SetDelay(d time.Duration) { f.delay.Store(int64(max(d, 0))) }

// SetError makes every call of the leg fail with err after its injected
// delay; nil clears it. Wrap ErrLegUnavailable to drill degradation, any
// other error to drill a fatal leg.
func (f *FaultLeg) SetError(err error) { f.fault.Store(&err) }

// inject sleeps the configured delay, then returns the configured fault.
// It runs at the top of each call so the delay lands inside the leg's
// measured wall time, exactly like a genuinely slow shard. The sleep
// honours ctx: a canceled scatter interrupts the injected straggler just
// like the real query path polls its context, so the cancellation drills
// measure the Coordinator's reaction time, not the injected latency.
func (f *FaultLeg) inject(ctx context.Context) error {
	if d := f.delay.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return index.CtxErr(ctx)
		}
	}
	if p := f.fault.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *FaultLeg) QueryBatch(ctx context.Context, batch []index.BatchQuery, o index.BatchOptions) ([]index.Result, error) {
	if err := f.inject(ctx); err != nil {
		return nil, err
	}
	return f.Leg.QueryBatch(ctx, batch, o)
}
