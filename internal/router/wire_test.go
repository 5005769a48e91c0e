package router

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tind/internal/core"
	"tind/internal/index"
)

// localOnly lists the fields of a leg's index.Result that deliberately do
// not cross the wire: a shard's spans stay in the process that recorded
// them, and the Router builds PerShard itself from leg observations.
var localOnly = []string{"Result.Stats.Trace", "Result.Stats.PerShard"}

// fillDistinct sets every exported field under v to a distinct non-zero
// value, one element per slice.
func fillDistinct(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(v.Index(0), n)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(v.Type().Name() + string(rune('a'+*n%26)))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// sameOrLocal walks sent and got in step: a localOnly field must arrive
// zero (and is ticked off in seen), every other leaf must arrive as sent.
func sameOrLocal(t *testing.T, path string, sent, got reflect.Value, seen map[string]bool) {
	t.Helper()
	if slices.Contains(localOnly, path) {
		seen[path] = true
		if !got.IsZero() {
			t.Errorf("%s is local-only but crossed the wire as %v", path, got)
		}
		return
	}
	switch {
	case sent.Kind() == reflect.Struct:
		for i := 0; i < sent.NumField(); i++ {
			if f := sent.Type().Field(i); f.IsExported() {
				sameOrLocal(t, path+"."+f.Name, sent.Field(i), got.Field(i), seen)
			}
		}
	case sent.Kind() == reflect.Slice && got.Len() == sent.Len():
		for i := 0; i < sent.Len(); i++ {
			sameOrLocal(t, path+"[]", sent.Index(i), got.Index(i), seen)
		}
	case !reflect.DeepEqual(sent.Interface(), got.Interface()):
		t.Errorf("%s: sent %v, the router read %v — give the field a JSON tag, or list it in localOnly if it must stay in its process",
			path, sent, got)
	}
}

// TestWireCarriesEveryResultField pins "the wire carries the engine's own
// types": every exported field of index.Result, QueryStats, Timings and
// Ranked survives the encoder handleBatch answers with and the decoder a
// leg reads with, or is named in localOnly. A field added to the engine
// later cannot be dropped on the way to the router without this failing —
// which is what the hand-copied mirror structs used to do silently.
func TestWireCarriesEveryResultField(t *testing.T) {
	var sent index.Result
	n := 0
	fillDistinct(reflect.ValueOf(&sent).Elem(), &n)

	rec := httptest.NewRecorder()
	WriteJSON(rec, wireBatchResult{Results: []index.Result{sent}})
	// One shard owns every id, so the ownership check passes whatever ids
	// the fill chose.
	got, err := readBatchResult(rec.Body, 1, Info{Shards: 1, Attributes: math.MaxInt32})
	if err != nil {
		t.Fatalf("the router rejects what the shard server encodes: %v", err)
	}
	seen := map[string]bool{}
	sameOrLocal(t, "Result", reflect.ValueOf(sent), reflect.ValueOf(got[0]), seen)
	for _, path := range localOnly {
		if !seen[path] {
			t.Errorf("localOnly names %s, which index.Result no longer has", path)
		}
	}
}

// TestLegRequestAsksForNoTrace: an in-process caller may set Trace, but a
// shard's spans never leave its process, so the leg request must not make
// every shard server record spans per leg only to drop them.
func TestLegRequestAsksForNoTrace(t *testing.T) {
	wq, err := queryToWire(3, index.QueryOptions{Mode: index.ModeForward, Params: core.DefaultDays(60), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(wq)
	if err != nil {
		t.Fatal(err)
	}
	if _, o, err := wireToOptions(wq); err != nil || o.Trace || strings.Contains(string(buf), "trace") {
		t.Fatalf("leg request %s decodes to Trace=%v (%v), want no trace asked for", buf, o.Trace, err)
	}
}
