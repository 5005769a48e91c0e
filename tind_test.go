package tind_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tind"
)

// buildGamesDataset assembles the paper's motivating scenario through the
// public API: a complete list of games and two derived columns that lag
// behind it.
func buildGamesDataset(t testing.TB) (*tind.Dataset, *tind.History, *tind.History, *tind.History) {
	t.Helper()
	const horizon = tind.Time(400)
	ds := tind.NewDataset(horizon)
	intern := func(ss ...string) tind.ValueSet { return ds.Dict().InternAll(ss) }

	list := tind.NewBuilder(tind.Meta{Page: "List of Pokémon games", Table: "T1", Column: "Game"})
	list.Observe(0, intern("Red", "Blue", "Yellow", "Gold", "Silver"))
	list.Observe(103, intern("Red", "Blue", "Yellow", "Gold", "Silver", "Ruby"))
	list.Observe(200, intern("Red", "Blue", "Yellow", "Gold", "Silver", "Ruby", "Diamond"))
	lh, err := list.Build(horizon)
	if err != nil {
		t.Fatal(err)
	}

	// The composer's page learns of Ruby three days before the list page —
	// the temporal-shift scenario of the paper's introduction.
	composer := tind.NewBuilder(tind.Meta{Page: "Junichi Masuda", Table: "T1", Column: "Game"})
	composer.Observe(0, intern("Red", "Blue"))
	composer.Observe(100, intern("Red", "Blue", "Ruby"))
	ch, err := composer.Build(horizon)
	if err != nil {
		t.Fatal(err)
	}

	unrelated := tind.NewBuilder(tind.Meta{Page: "Some other page", Table: "T1", Column: "Thing"})
	unrelated.Observe(0, intern("Apple", "Banana"))
	unrelated.Observe(150, intern("Apple", "Cherry"))
	uh, err := unrelated.Build(horizon)
	if err != nil {
		t.Fatal(err)
	}

	for _, h := range []*tind.History{lh, ch, uh} {
		if _, err := ds.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	return ds, lh, ch, uh
}

func TestPublicAPISearch(t *testing.T) {
	ds, lh, ch, uh := buildGamesDataset(t)
	idx, err := tind.BuildIndex(ds, tind.DefaultOptions(ds.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	p := tind.DefaultParams(ds.Horizon())
	res, err := idx.Search(ch, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != lh.ID() {
		t.Fatalf("composer column must be contained exactly in the game list; got %v", res.IDs)
	}
	if !tind.Holds(ch, lh, p) {
		t.Fatal("Holds must agree with Search")
	}
	if tind.Holds(ch, uh, p) {
		t.Fatal("unrelated attribute must not contain the composer column")
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("stats must be populated")
	}
}

func TestPublicAPIReverse(t *testing.T) {
	ds, lh, ch, _ := buildGamesDataset(t)
	idx, err := tind.BuildIndex(ds, tind.DefaultReverseOptions(ds.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Reverse(lh, tind.DefaultParams(ds.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range res.IDs {
		if id == ch.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("reverse search from the game list must find the composer column; got %v", res.IDs)
	}
}

func TestPublicAPIVariants(t *testing.T) {
	ds, lh, ch, _ := buildGamesDataset(t)
	n := ds.Horizon()
	// The composer column lags 3 days behind the list: strict fails, the
	// relaxations hold.
	if tind.Holds(ch, lh, tind.Strict(n)) {
		t.Fatal("strict must fail on the 3-day delay")
	}
	if !tind.Holds(ch, lh, tind.EpsilonRelaxed(0.01, n)) {
		t.Fatal("ε=1% must absorb the delay")
	}
	if !tind.Holds(ch, lh, tind.EpsilonDelta(0, 7, n)) {
		t.Fatal("δ=7 must bridge the delay")
	}
	if got := tind.ViolationWeight(ch, lh, tind.Strict(n)); got != 3 {
		t.Fatalf("violation weight = %g, want 3 days", got)
	}
	if !tind.DeltaContained(ch, lh, 101, 3) {
		t.Fatal("δ-containment must bridge the shifted update")
	}
	if tind.StaticIND(ch, lh, 101) {
		t.Fatal("static IND must fail during the delay window")
	}
	req := tind.RequiredValues(ch, 3, tind.Uniform(n))
	if req.Len() != 3 {
		t.Fatalf("required values = %d, want 3", req.Len())
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	ds, lh, ch, _ := buildGamesDataset(t)
	bp := tind.BloomParams{M: 512, K: 2}
	st, err := tind.NewStaticMANY(ds, ds.Horizon()-1, bp)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Search(ch)
	if len(got) != 1 || got[0] != lh.ID() {
		t.Fatalf("static MANY: got %v", got)
	}
	km, err := tind.NewKMany(ds, 4, 7, bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := km.Search(ch, tind.DefaultParams(ds.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != lh.ID() {
		t.Fatalf("k-MANY: got %v", res.IDs)
	}
}

func TestPublicAPIWikiPipeline(t *testing.T) {
	src := `{| class="wikitable"
! Game !! Year
|-
| [[Pokémon Red and Blue|Red]] || 1996
|-
| Gold || 1999
|}`
	tables := tind.ParseTables(src)
	if len(tables) != 1 || tables[0].Headers[0] != "Game" {
		t.Fatalf("ParseTables: %+v", tables)
	}
	ex := tind.NewExtractor()
	start := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := ex.Process(tind.WikiRevision{Page: "P", ID: 1, Timestamp: start, Wikitext: src}); err != nil {
		t.Fatal(err)
	}
	ds, rep, err := tind.Preprocess(ex.Records(), tind.PreprocessConfig{
		Start: start, End: start.AddDate(0, 0, 30),
		MinVersions: 1, MinMedianCardinality: 1, NumericThreshold: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 || rep.DroppedNumeric != 1 {
		t.Fatalf("pipeline: len=%d report=%+v", ds.Len(), rep)
	}
}

func TestPublicAPICorpusAndEval(t *testing.T) {
	c, err := tind.GenerateCorpus(tind.CorpusConfig{Seed: 3, Attributes: 80, Horizon: 500, AttrsPerDomain: 20})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := tind.SampleLabeled(c.Dataset, c.Truth, c.Dataset.Horizon()-1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) == 0 {
		t.Fatal("no labelled pairs")
	}
	idx, err := tind.BuildIndex(c.Dataset, tind.DefaultOptions(c.Dataset.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := idx.AllPairsContext(context.Background(), tind.DefaultParams(c.Dataset.Horizon()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("all-pairs discovery found nothing")
	}
}

func TestPublicAPIQueryAndMetrics(t *testing.T) {
	ds, lh, ch, _ := buildGamesDataset(t)
	idx, err := tind.BuildIndex(ds, tind.DefaultOptions(ds.Horizon()).ForReverse())
	if err != nil {
		t.Fatal(err)
	}
	p := tind.DefaultParams(ds.Horizon())

	res, err := idx.Query(context.Background(), ch, tind.QueryOptions{Mode: tind.ModeForward, Params: p, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != lh.ID() {
		t.Fatalf("unified Query must match Search: %v", res.IDs)
	}
	if res.Stats.Timings.Total <= 0 || len(res.Stats.Trace) == 0 {
		t.Fatalf("timings/trace not populated: %+v", res.Stats)
	}

	if _, err := idx.Query(context.Background(), ch, tind.QueryOptions{Mode: tind.ModeTopK, Params: p}); !errors.Is(err, tind.ErrInvalidIndexOptions) {
		t.Fatalf("topk without K: err %v, want ErrInvalidIndexOptions", err)
	}

	var buf bytes.Buffer
	if err := tind.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tind_query_phase_seconds") {
		t.Fatal("WriteMetrics exposition missing query-phase histogram")
	}
}

func TestPublicAPISharded(t *testing.T) {
	c, err := tind.GenerateCorpus(tind.CorpusConfig{Seed: 11, Attributes: 60, Horizon: 200, AttrsPerDomain: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	p := tind.DefaultParams(ds.Horizon())
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Params = p
	opt.Reverse = true

	idx, err := tind.BuildIndex(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := tind.BuildShardedIndex(ds, tind.ShardOptions{
		Shards: 4, Seed: 7, Index: tind.PartitionShardOptions(opt, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sx.NumShards())
	}
	for id := 0; id < ds.Len(); id++ {
		q := ds.Attr(tind.AttrID(id))
		for _, mode := range []tind.QueryMode{tind.ModeForward, tind.ModeReverse} {
			o := tind.QueryOptions{Mode: mode, Params: p}
			mres, err := idx.Query(context.Background(), q, o)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := sx.Query(context.Background(), q, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(mres.IDs) != len(sres.IDs) {
				t.Fatalf("attr %d mode %v: sharded answer %v != monolith %v", id, mode, sres.IDs, mres.IDs)
			}
			for i := range mres.IDs {
				if mres.IDs[i] != sres.IDs[i] {
					t.Fatalf("attr %d mode %v: sharded answer %v != monolith %v", id, mode, sres.IDs, mres.IDs)
				}
			}
		}
	}
}

func TestPublicAPIIngest(t *testing.T) {
	c, err := tind.GenerateCorpus(tind.CorpusConfig{Seed: 5, Attributes: 30, Horizon: 150, AttrsPerDomain: 10})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Reverse = true
	idx, err := tind.BuildIndex(ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/facade.wal"
	log, err := tind.OpenWAL(path, tind.WALOptions{Sync: tind.WALSyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ing := tind.NewIngester(idx, ds, log, tind.IngestOptions{MaxDirty: 1 << 30, MaxDirtyAge: time.Hour})
	ing.Start()

	oldHorizon := ds.Horizon()
	target := tind.AttrID(0)
	var obsEnd tind.Time
	ing.View(func(ds *tind.Dataset) { obsEnd = ds.Attr(target).ObservedUntil() })
	batch := []tind.WALRecord{
		{Type: tind.WALExtendHorizon, Horizon: oldHorizon + 5},
		{Type: tind.WALAppend, Attr: target, Start: obsEnd, End: oldHorizon + 5,
			Values: []string{"facade-live-1", "facade-live-2"}},
	}
	if err := ing.Submit(batch); err != nil {
		t.Fatal(err)
	}
	// A batch appending before the pending observation end must be
	// rejected atomically, leaving the WAL untouched.
	bad := []tind.WALRecord{{Type: tind.WALAppend, Attr: target, Start: 0, End: 1, Values: []string{"x"}}}
	if err := ing.Submit(bad); !errors.Is(err, tind.ErrIngestRejected) {
		t.Fatalf("Submit(out-of-order append) = %v, want ErrIngestRejected", err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.AppliedRecords != 2 || st.PendingRecords != 0 || st.RejectedRecords != 1 {
		t.Fatalf("stats after flush = %+v, want 2 applied, 0 pending, 1 rejected", st)
	}
	var gotHorizon tind.Time
	ing.View(func(ds *tind.Dataset) { gotHorizon = ds.Horizon() })
	if gotHorizon != oldHorizon+5 {
		t.Fatalf("horizon = %d, want %d", gotHorizon, oldHorizon+5)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// ReplayWAL over a regenerated corpus must land on the same state.
	c2, err := tind.GenerateCorpus(tind.CorpusConfig{Seed: 5, Attributes: 30, Horizon: 150, AttrsPerDomain: 10})
	if err != nil {
		t.Fatal(err)
	}
	log2, err := tind.OpenWAL(path, tind.WALOptions{Sync: tind.WALSyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	_, n, err := tind.ReplayWAL(c2.Dataset, log2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ReplayWAL replayed %d records, want 2", n)
	}
	if c2.Dataset.Horizon() != oldHorizon+5 {
		t.Fatalf("replayed horizon = %d, want %d", c2.Dataset.Horizon(), oldHorizon+5)
	}
	if got := c2.Dataset.Attr(target).ObservedUntil(); got != oldHorizon+5 {
		t.Fatalf("replayed observation end = %d, want %d", got, oldHorizon+5)
	}
}
