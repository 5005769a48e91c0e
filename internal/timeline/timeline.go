// Package timeline provides the temporal model used throughout tind:
// day-granularity timestamps, half-open intervals, and weight functions
// over timestamps with efficient interval sums.
//
// Following the paper (Section 3.1), time is a sequence of equidistant
// timestamps T = {t_1, ..., t_n}. We represent timestamps by their index
// (0-based) and durations by integers. The observation granularity of the
// Wikipedia corpus is one day, so a Time value is "days since the start of
// the observation period".
package timeline

import (
	"fmt"
	"math"
	"time"
)

// Time is a timestamp index into the global observation period. The first
// observable timestamp is 0; values outside [0, n) address time before or
// after the observation period and are valid inputs to interval clamping.
type Time int

// MaxHorizon is the longest observation period the program accepts,
// 2^31 − 1 timestamps: the reverse index stores timestamps as int32.
const MaxHorizon Time = math.MaxInt32

// Day is the wall-clock duration represented by one Time step.
const Day = 24 * time.Hour

// Epoch anchors Time 0 to a wall-clock date. The paper's corpus starts in
// early 2001; experiments only rely on relative day indices, so the anchor
// matters solely for human-readable rendering of results.
var Epoch = time.Date(2001, time.January, 15, 0, 0, 0, 0, time.UTC)

// Wall converts a timestamp index to wall-clock time using Epoch.
func (t Time) Wall() time.Time { return Epoch.Add(time.Duration(t) * Day) }

// FromWall converts a wall-clock time to the timestamp index of its day,
// truncating within the day.
func FromWall(w time.Time) Time {
	return Time(w.Sub(Epoch) / Day)
}

// Interval is a half-open interval [Start, End) of timestamps.
//
// The paper uses closed intervals [s, e]; we use the half-open convention
// throughout the code base because it composes cleanly (adjacent intervals
// share a boundary, lengths subtract) and convert at the API edges where a
// definition demands a closed interval (e.g. δ-containment windows).
type Interval struct {
	Start Time // first timestamp in the interval
	End   Time // one past the last timestamp in the interval
}

// NewInterval returns the half-open interval [start, end). It does not
// validate ordering; use IsEmpty to test for emptiness.
func NewInterval(start, end Time) Interval { return Interval{Start: start, End: end} }

// Closed returns the half-open interval equivalent to the closed interval
// [s, e] of the paper's notation.
func Closed(s, e Time) Interval { return Interval{Start: s, End: e + 1} }

// Len returns the number of timestamps in the interval (0 if empty).
func (i Interval) Len() int {
	if i.End <= i.Start {
		return 0
	}
	return int(i.End - i.Start)
}

// IsEmpty reports whether the interval contains no timestamps.
func (i Interval) IsEmpty() bool { return i.End <= i.Start }

// Contains reports whether timestamp t lies in the interval.
func (i Interval) Contains(t Time) bool { return t >= i.Start && t < i.End }

// Intersect returns the intersection of two intervals (possibly empty).
func (i Interval) Intersect(o Interval) Interval {
	s, e := i.Start, i.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	return Interval{Start: s, End: e}
}

// Overlaps reports whether the two intervals share at least one timestamp.
func (i Interval) Overlaps(o Interval) bool {
	return i.Start < o.End && o.Start < i.End
}

// Expand grows the interval by delta timestamps on each side. This realizes
// the paper's I^δ = [I.s − δ, I.e + δ] (Definition 3.4 and Section 4.2.2).
// The result may extend beyond the observation period; callers clamp with
// Clamp when materializing value sets.
func (i Interval) Expand(delta Time) Interval {
	if i.IsEmpty() {
		return i
	}
	return Interval{Start: i.Start - delta, End: i.End + delta}
}

// Clamp restricts the interval to [0, n).
func (i Interval) Clamp(n Time) Interval {
	s, e := i.Start, i.End
	if s < 0 {
		s = 0
	}
	if e > n {
		e = n
	}
	return Interval{Start: s, End: e}
}

// String renders the interval in the paper's closed notation.
func (i Interval) String() string {
	if i.IsEmpty() {
		return "[)"
	}
	return fmt.Sprintf("[%d,%d]", int(i.Start), int(i.End-1))
}

// Window returns the closed δ-window [t−δ, t+δ] around a single timestamp
// as a half-open interval, i.e. the interval used by δ-containment.
func Window(t Time, delta Time) Interval {
	return Interval{Start: t - delta, End: t + delta + 1}
}
