package core

import (
	"math/bits"
	"slices"

	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// Prepared is Q's side of the sweep. Check prepares the Q of each pair it
// is given; a scan that checks one Q against many right-hand sides
// prepares it once and calls CheckPrepared. It lets each pair decide "is
// version i of Q coverable by A?" with a few word operations instead of
// projecting the version onto All(Q) ∩ All(A):
//
//   - mark maps a value id to its position in All(Q) plus one (0: not in
//     All(Q)), so All(Q) ∩ All(A) is one pass over All(A) into a bitset
//     over All(Q)'s positions, and a pair that walks A's versions keeps
//     its window counts by those positions too;
//   - row i holds the positions of version i's values, so version i is
//     coverable iff row i &^ shared is zero;
//   - sum i is the weight of version i's clamped validity, the term the
//     sweep adds for it when it is not coverable.
//
// A Prepared holds no reference into the scan's results; its zero value is
// ready for Prepare, and a warm one prepares without allocating. The
// scan's workers share it read-only.
type Prepared struct {
	q     *history.History
	all   values.Set // All(Q) at Prepare time
	mark  []int32    // value id → position in all + 1, up to all's largest id
	words int        // ⌈|all| / 64⌉
	rows  []uint64   // per version of Q, words bits each
	sums  []float64  // per version of Q, w.Sum of its clamped validity
}

// Prepare fills p for query q under the weight w: every CheckPrepared
// against p must pass Params with that same weight. The marks of the
// previous query are cleared by walking its All(Q), never the whole array,
// so every entry past mark's length, up to its capacity, stays zero.
func (p *Prepared) Prepare(q *history.History, w timeline.WeightFunc) {
	for _, v := range p.all {
		p.mark[v] = 0
	}
	p.q, p.all = q, q.AllValues()
	top := 0
	if n := len(p.all); n > 0 {
		top = int(p.all[n-1]) + 1
	}
	p.mark = slices.Grow(p.mark[:0], top)[:top]
	for at, v := range p.all {
		p.mark[v] = int32(at) + 1
	}
	p.words = (len(p.all) + 63) / 64
	nv := q.NumVersions()
	p.rows = slices.Grow(p.rows[:0], nv*p.words)[:nv*p.words]
	clear(p.rows)
	p.sums = slices.Grow(p.sums[:0], nv)[:nv]
	n := w.Horizon()
	for i := range nv {
		row := p.rows[i*p.words : (i+1)*p.words]
		for _, v := range q.Version(i).Values {
			at := p.mark[v] - 1
			row[at>>6] |= 1 << (at & 63)
		}
		p.sums[i] = 0
		if iv := q.Validity(i).Clamp(n); !iv.IsEmpty() {
			p.sums[i] = w.Sum(iv)
		}
	}
}

// Sum returns the weight of version i's validity clamped to the horizon:
// the term the sweep adds for version i when A lacks one of its values.
func (p *Prepared) Sum(i int) float64 { return p.sums[i] }

// sharedWith sets dst to the positions in All(Q) of the values A also
// holds, in one pass over All(A) that stops past Q's largest id.
func (p *Prepared) sharedWith(dst []uint64, a values.Set) []uint64 {
	dst = slices.Grow(dst[:0], p.words)[:p.words]
	clear(dst)
	for _, v := range a {
		if int(v) >= len(p.mark) {
			break
		}
		if at := p.mark[v] - 1; at >= 0 {
			dst[at>>6] |= 1 << (at & 63)
		}
	}
	return dst
}

// outside reports the first value, in id order, of version i of Q that
// shared lacks: the version is uncoverable iff there is one.
func (p *Prepared) outside(i int, shared []uint64) (values.Value, bool) {
	for k, r := range p.rows[i*p.words : (i+1)*p.words] {
		if m := r &^ shared[k]; m != 0 {
			return p.all[k<<6|bits.TrailingZeros64(m)], true
		}
	}
	return 0, false
}

// positions appends, ascending, the positions in All(Q) of the values of
// vs that Q holds, in one pass over vs that stops past Q's largest id.
func (p *Prepared) positions(dst []int32, vs values.Set) []int32 {
	for _, v := range vs {
		if int(v) >= len(p.mark) {
			break
		}
		if at := p.mark[v] - 1; at >= 0 {
			dst = append(dst, at)
		}
	}
	return dst
}
