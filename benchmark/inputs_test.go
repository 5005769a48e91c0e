package main

import (
	"encoding/json"
	"testing"
)

func TestQueryStreamIsASeedFunction(t *testing.T) {
	a := newQueryStream(7, 500).render(200)
	b := newQueryStream(7, 500).render(200)
	if a != b {
		t.Fatal("same seed produced different request streams")
	}
	if c := newQueryStream(8, 500).render(200); a == c {
		t.Fatal("different seeds produced the same request stream")
	}
}

func TestPointMixShare(t *testing.T) {
	s := newQueryStream(3, 1000)
	rev := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.point(i).op == opReverse {
			rev++
		}
	}
	if share := float64(rev) / n; share < reverseShare-0.02 || share > reverseShare+0.02 {
		t.Fatalf("reverse share %.3f, want about %.2f", share, reverseShare)
	}
}

func TestBatchRequestShape(t *testing.T) {
	r := newQueryStream(1, 100).batch(3)
	var body struct {
		Queries []struct {
			Attr, Mode string
		}
	}
	if err := json.Unmarshal([]byte(r.body), &body); err != nil {
		t.Fatalf("batch body is not JSON: %v", err)
	}
	if len(body.Queries) != batchEntries || len(r.attrs) != batchEntries {
		t.Fatalf("%d entries, %d attrs, want %d", len(body.Queries), len(r.attrs), batchEntries)
	}
	for j, q := range body.Queries {
		want := "forward"
		if j >= batchEntries/2 {
			want = "reverse"
		}
		if q.Mode != want {
			t.Fatalf("entry %d mode %q, want %q", j, q.Mode, want)
		}
	}
}

// TestIngestFeedIsASeedFunctionAndValid replays the rules POST /ingest
// enforces (append starts at the attribute's end, ends after it starts and
// within the horizon; the horizon never shrinks) over the feed's deltas.
func TestIngestFeedIsASeedFunctionAndValid(t *testing.T) {
	corpus, err := generateCorpus(120, 200)
	if err != nil {
		t.Fatal(err)
	}
	ds := corpus.Dataset
	a, b, c := newIngestFeed(5, ds), newIngestFeed(5, ds), newIngestFeed(6, ds)
	same, differ := true, false
	for i := 0; i < 50; i++ {
		ra, rb, rc := a.batch(), b.batch(), c.batch()
		same = same && ra.body == rb.body
		differ = differ || ra.body != rc.body
		if !json.Valid([]byte(ra.body)) {
			t.Fatalf("batch %d is not JSON: %s", i, ra.body)
		}
	}
	if !same || !differ {
		t.Fatalf("feed is not a function of the seed: same=%v differ=%v", same, differ)
	}

	f := newIngestFeed(9, ds)
	horizon := int(ds.Horizon())
	ends := append([]int(nil), f.ends...)
	appends := 0
	for i := 0; i < 400; i++ {
		batch := f.next()
		if len(batch) == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		for _, d := range batch {
			if d.horizon > 0 {
				if d.horizon < horizon {
					t.Fatalf("batch %d shrinks the horizon %d to %d", i, horizon, d.horizon)
				}
				horizon = d.horizon
				continue
			}
			if d.start < ends[d.attr] || d.end <= d.start || d.end > horizon {
				t.Fatalf("batch %d: invalid append %+v (attr end %d, horizon %d)", i, d, ends[d.attr], horizon)
			}
			ends[d.attr] = d.end
			appends++
		}
	}
	if appends == 0 {
		t.Fatal("feed produced no appends")
	}
}
