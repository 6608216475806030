package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

func testSchema(t testing.TB, cards []int) *dataset.Schema {
	t.Helper()
	attrs := make([]dataset.Attribute, len(cards))
	for i, c := range cards {
		vals := make([]string, c)
		for v := range vals {
			vals[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Values: vals}
	}
	return dataset.MustSchema(attrs)
}

func randomRows(rng *rand.Rand, cards []int, n int) [][]uint8 {
	rows := make([][]uint8, n)
	for i := range rows {
		row := make([]uint8, len(cards))
		for j, c := range cards {
			row[j] = uint8(rng.Intn(c))
		}
		rows[i] = row
	}
	return rows
}

// fullDataset collects all rows appended so far into a fresh Dataset,
// the from-scratch reference the engine must agree with.
func fullDataset(t testing.TB, schema *dataset.Schema, batches [][][]uint8) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(schema)
	for _, batch := range batches {
		for _, row := range batch {
			if err := ds.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func TestAppendValidation(t *testing.T) {
	e := New(testSchema(t, []int{2, 3}), Options{})
	if err := e.Append([][]uint8{{0}}); err == nil {
		t.Error("short row accepted")
	}
	if err := e.Append([][]uint8{{0, 3}}); err == nil {
		t.Error("out-of-cardinality value accepted")
	}
	if err := e.Append(nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	if got := e.Rows(); got != 0 {
		t.Errorf("rows = %d after rejected appends, want 0", got)
	}
}

func TestCoverageMatchesScan(t *testing.T) {
	cards := []int{2, 3, 2, 4}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(7))
	e := New(schema, Options{})
	var batches [][][]uint8
	for step := 0; step < 6; step++ {
		batch := randomRows(rng, cards, 30+rng.Intn(50))
		batches = append(batches, batch)
		if err := e.Append(batch); err != nil {
			t.Fatal(err)
		}
		ds := fullDataset(t, schema, batches)
		// Every pattern of this small lattice must agree with the
		// literal row scan of Definition 2.
		pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
			got, err := e.Coverage(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := ds.CountMatches(p); got != want {
				t.Fatalf("step %d: cov(%v) = %d, want %d", step, p, got, want)
			}
			return true
		})
	}
	if err := func() error { _, err := e.Coverage(pattern.Pattern{9, 9, 9, 9}); return err }(); err == nil {
		t.Error("invalid pattern accepted")
	}
}

// TestIncrementalEquivalence is the core tentpole property: after any
// sequence of appends, the engine's cached-and-repaired MUP set must
// equal a from-scratch naive run, and mup.Verify must accept it.
func TestIncrementalEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"tiny-compaction", Options{CompactMinDistinct: 1, CompactFraction: 0.01}},
		{"single-worker", Options{Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cards := []int{2, 3, 2, 3}
			schema := testSchema(t, cards)
			rng := rand.New(rand.NewSource(11))
			e := New(schema, tc.opts)
			var batches [][][]uint8
			const tau = 8
			for step := 0; step < 8; step++ {
				batch := randomRows(rng, cards, 10+rng.Intn(60))
				batches = append(batches, batch)
				if err := e.Append(batch); err != nil {
					t.Fatal(err)
				}
				got, err := e.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				ds := fullDataset(t, schema, batches)
				ix := index.Build(ds)
				want, err := mup.Naive(ix, mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.MUPs) != len(want.MUPs) {
					t.Fatalf("step %d: %d MUPs, want %d\ngot:  %v\nwant: %v",
						step, len(got.MUPs), len(want.MUPs), got.MUPs, want.MUPs)
				}
				for i := range got.MUPs {
					if !got.MUPs[i].Equal(want.MUPs[i]) {
						t.Fatalf("step %d: MUPs[%d] = %v, want %v", step, i, got.MUPs[i], want.MUPs[i])
					}
				}
				if err := mup.Verify(ix, tau, got.MUPs); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			st := e.Stats()
			if st.FullSearches != 1 {
				t.Errorf("full searches = %d, want exactly 1 (the rest must be repairs)", st.FullSearches)
			}
			if st.Repairs != 7 {
				t.Errorf("repairs = %d, want 7", st.Repairs)
			}
			if st.Rows != e.Rows() || st.Rows == 0 {
				t.Errorf("stats rows = %d, engine rows = %d", st.Rows, e.Rows())
			}
		})
	}
}

// TestMaxLevelEquivalence checks the level-bounded cache entries are
// repaired correctly too.
func TestMaxLevelEquivalence(t *testing.T) {
	cards := []int{2, 2, 3, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(3))
	e := New(schema, Options{})
	var batches [][][]uint8
	const tau, maxLevel = 5, 2
	for step := 0; step < 5; step++ {
		batch := randomRows(rng, cards, 20+rng.Intn(30))
		batches = append(batches, batch)
		if err := e.Append(batch); err != nil {
			t.Fatal(err)
		}
		got, err := e.MUPs(mup.Options{Threshold: tau, MaxLevel: maxLevel})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(fullDataset(t, schema, batches))
		want, err := mup.Naive(ix, mup.Options{Threshold: tau, MaxLevel: maxLevel})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.MUPs) != len(want.MUPs) {
			t.Fatalf("step %d: %d MUPs, want %d", step, len(got.MUPs), len(want.MUPs))
		}
		for i := range got.MUPs {
			if !got.MUPs[i].Equal(want.MUPs[i]) {
				t.Fatalf("step %d: MUPs[%d] = %v, want %v", step, i, got.MUPs[i], want.MUPs[i])
			}
		}
	}
}

// TestEmptyEngineGrows starts from zero rows (root itself uncovered)
// and appends until the dataset is fully covered.
func TestEmptyEngineGrows(t *testing.T) {
	cards := []int{2, 2}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	res, err := e.MUPs(mup.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 1 || res.MUPs[0].Level() != 0 {
		t.Fatalf("empty data MUPs = %v, want the root", res.MUPs)
	}
	// One row of every combination covers everything at τ=1.
	var rows [][]uint8
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		rows = append(rows, append([]uint8(nil), c...))
		return true
	})
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	res, err = e.MUPs(mup.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 0 {
		t.Fatalf("fully covered data has MUPs %v", res.MUPs)
	}
}

func TestCacheHitsAndGeneration(t *testing.T) {
	cards := []int{2, 2, 2}
	schema := testSchema(t, cards)
	e := NewFromDataset(datasetOf(t, schema, randomRows(rand.New(rand.NewSource(1)), cards, 100)), Options{})
	gen0 := e.Generation()
	if _, err := e.MUPs(mup.Options{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MUPs(mup.Options{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CacheHits == 0 {
		t.Error("repeated identical query did not hit the cache")
	}
	if err := e.Append(randomRows(rand.New(rand.NewSource(2)), cards, 10)); err != nil {
		t.Fatal(err)
	}
	if e.Generation() == gen0 {
		t.Error("generation did not advance on append")
	}
}

// TestUnboundedLevelSharesCacheEntry pins the cache key
// normalization: MaxLevel ≤ 0 and MaxLevel ≥ d all name the unbounded
// search, so only the first of them searches, for MUPs and plans alike.
func TestUnboundedLevelSharesCacheEntry(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := testSchema(t, cards)
	e := NewFromDataset(datasetOf(t, schema, randomRows(rand.New(rand.NewSource(3)), cards, 60)), Options{})
	var first *mup.Result
	for i, level := range []int{0, len(cards), -1, len(cards) + 4} {
		res, err := e.MUPs(mup.Options{Threshold: 6, MaxLevel: level})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Errorf("MaxLevel %d: got a different result than the first unbounded search", level)
		}
		if st := e.Stats(); st.FullSearches != 1 || st.CacheHits != int64(i) {
			t.Errorf("MaxLevel %d: full searches = %d, cache hits = %d; want 1 and %d", level, st.FullSearches, st.CacheHits, i)
		}
	}
	// A real bound is a different search.
	if _, err := e.MUPs(mup.Options{Threshold: 6, MaxLevel: 2}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.FullSearches != 2 {
		t.Errorf("MaxLevel 2 shared the unbounded entry: full searches = %d, want 2", st.FullSearches)
	}
	spec := PlanSpec{MaxLevel: 1}
	for i, level := range []int{0, len(cards)} {
		if _, err := e.Plan(context.Background(), mup.Options{Threshold: 6, MaxLevel: level}, spec); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.PlanHits != int64(i) {
			t.Errorf("plan at MaxLevel %d: plan hits = %d, want %d", level, st.PlanHits, i)
		}
	}
}

// TestCacheEviction bounds the per-threshold cache: querying more
// configurations than the cap must evict the least recently used
// entries instead of growing without limit (rate-based thresholds
// mint a new τ per append).
func TestCacheEviction(t *testing.T) {
	cards := []int{2, 2, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(9))
	e := NewFromDataset(datasetOf(t, schema, randomRows(rng, cards, 200)), Options{MaxCachedSearches: 3})
	for tau := int64(1); tau <= 10; tau++ {
		if _, err := e.MUPs(mup.Options{Threshold: tau}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CachedSearches > 3 {
		t.Errorf("cached searches = %d, want ≤ 3", st.CachedSearches)
	}
	if st.FullSearches != 10 {
		t.Errorf("full searches = %d, want 10", st.FullSearches)
	}
	// The most recent configuration survives: re-querying it is a hit.
	hits := st.CacheHits
	if _, err := e.MUPs(mup.Options{Threshold: 10}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheHits; got != hits+1 {
		t.Errorf("cache hits = %d, want %d", got, hits+1)
	}
}

func datasetOf(t testing.TB, schema *dataset.Schema, rows [][]uint8) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(schema)
	for _, r := range rows {
		if err := ds.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestConcurrentQueriesAndAppends races readers (point probes, batch
// probes, MUP queries at two thresholds) against a writer appending
// batches. Run under -race this validates the locking discipline; the
// final state is checked for equivalence afterwards.
func TestConcurrentQueriesAndAppends(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(42))
	seedRows := randomRows(rng, cards, 200)
	e := NewFromDataset(datasetOf(t, schema, seedRows), Options{CompactMinDistinct: 4, CompactFraction: 0.1})

	// A single writer keeps the reference dataset well-defined while
	// the readers race it.
	var allBatches [][][]uint8
	const readers = 8
	const batches = 25

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			probe := make(pattern.Pattern, len(cards))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j, c := range cards {
					if rng.Intn(2) == 0 {
						probe[j] = pattern.Wildcard
					} else {
						probe[j] = uint8(rng.Intn(c))
					}
				}
				if _, err := e.Coverage(probe); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.CoverageBatch([]pattern.Pattern{probe, pattern.All(len(cards))}); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.MUPs(mup.Options{Threshold: int64(5 + rng.Intn(2)*10)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i + 1))
	}
	wrng := rand.New(rand.NewSource(99))
	for b := 0; b < batches; b++ {
		batch := randomRows(wrng, cards, 20)
		allBatches = append(allBatches, batch)
		if err := e.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// After the dust settles the engine must agree with a from-scratch
	// build over seed + all batches.
	ref := datasetOf(t, schema, seedRows)
	for _, batch := range allBatches {
		for _, r := range batch {
			if err := ref.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.Rows() != int64(ref.NumRows()) {
		t.Fatalf("engine rows = %d, reference = %d", e.Rows(), ref.NumRows())
	}
	ix := index.Build(ref)
	for _, tau := range []int64{5, 15} {
		got, err := e.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mup.Naive(ix, mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.MUPs) != len(want.MUPs) {
			t.Fatalf("τ=%d: %d MUPs, want %d", tau, len(got.MUPs), len(want.MUPs))
		}
		for i := range got.MUPs {
			if !got.MUPs[i].Equal(want.MUPs[i]) {
				t.Fatalf("τ=%d: MUPs[%d] = %v, want %v", tau, i, got.MUPs[i], want.MUPs[i])
			}
		}
		if err := mup.Verify(ix, tau, got.MUPs); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Compactions == 0 {
		t.Error("aggressive compaction options never compacted")
	}
}

func TestDeleteValidation(t *testing.T) {
	e := New(testSchema(t, []int{2, 3}), Options{})
	if err := e.Append([][]uint8{{0, 0}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete([][]uint8{{0}}); err == nil {
		t.Error("short row accepted")
	}
	if err := e.Delete([][]uint8{{0, 3}}); err == nil {
		t.Error("out-of-cardinality value accepted")
	}
	if err := e.Delete([][]uint8{{1, 1}}); err == nil {
		t.Error("delete of absent combination accepted")
	}
	// Atomicity: a batch needing more multiplicity than present must
	// leave the engine untouched, not apply the part that fits.
	gen := e.Generation()
	if err := e.Delete([][]uint8{{0, 0}, {0, 0}}); err == nil {
		t.Error("over-delete accepted")
	}
	if e.Rows() != 2 {
		t.Errorf("rows = %d after rejected deletes, want 2", e.Rows())
	}
	if e.Generation() != gen {
		t.Error("generation advanced on a rejected delete")
	}
	if err := e.Delete(nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	if err := e.Delete([][]uint8{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 1 {
		t.Errorf("rows = %d after delete, want 1", e.Rows())
	}
	if e.Generation() == gen {
		t.Error("generation did not advance on delete")
	}
	if st := e.Stats(); st.Deletes != 1 {
		t.Errorf("stats deletes = %d, want 1", st.Deletes)
	}
}

// liveCounts folds batches of appends and deletes into the reference
// combo→multiplicity map the engine must agree with.
func applyRef(ref map[string]int64, rows [][]uint8, sign int64) {
	for _, r := range rows {
		ref[string(r)] += sign
		if ref[string(r)] == 0 {
			delete(ref, string(r))
		}
	}
}

// refIndex builds the from-scratch oracle for a reference count map.
func refIndex(schema *dataset.Schema, ref map[string]int64) *index.Index {
	return index.BuildFromCounts(schema, ref)
}

// drawDeletable samples up to n rows that are currently live, so the
// delete batch is always legal.
func drawDeletable(rng *rand.Rand, ref map[string]int64, n int) [][]uint8 {
	avail := make(map[string]int64, len(ref))
	var keys []string
	for k, c := range ref {
		avail[k] = c
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]uint8
	for len(out) < n && len(keys) > 0 {
		i := rng.Intn(len(keys))
		k := keys[i]
		out = append(out, []uint8(k))
		if avail[k]--; avail[k] == 0 {
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	return out
}

// TestMutateEquivalence is the tentpole acceptance property: under
// randomized interleavings of appends and deletes, the engine's
// coverage over the whole lattice and its cached-and-repaired MUP sets
// must be byte-equivalent to a from-scratch rebuild at every step.
func TestMutateEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"tiny-compaction", Options{CompactMinDistinct: 1, CompactFraction: 0.01}},
		{"tiny-removed-log", Options{RemovedLogSize: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cards := []int{2, 3, 2}
			schema := testSchema(t, cards)
			rng := rand.New(rand.NewSource(23))
			e := New(schema, tc.opts)
			ref := make(map[string]int64)
			const tau = 5
			for step := 0; step < 30; step++ {
				if rng.Intn(3) > 0 || len(ref) == 0 {
					batch := randomRows(rng, cards, 5+rng.Intn(25))
					applyRef(ref, batch, 1)
					if err := e.Append(batch); err != nil {
						t.Fatal(err)
					}
				} else {
					batch := drawDeletable(rng, ref, 1+rng.Intn(10))
					applyRef(ref, batch, -1)
					if err := e.Delete(batch); err != nil {
						t.Fatal(err)
					}
				}
				ix := refIndex(schema, ref)
				pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
					got, err := e.Coverage(p)
					if err != nil {
						t.Fatal(err)
					}
					if want := ix.Coverage(p); got != want {
						t.Fatalf("step %d: cov(%v) = %d, want %d", step, p, got, want)
					}
					return true
				})
				got, err := e.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				want, err := mup.Naive(ix, mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.MUPs) != len(want.MUPs) {
					t.Fatalf("step %d: %d MUPs, want %d\ngot:  %v\nwant: %v",
						step, len(got.MUPs), len(want.MUPs), got.MUPs, want.MUPs)
				}
				for i := range got.MUPs {
					if !got.MUPs[i].Equal(want.MUPs[i]) {
						t.Fatalf("step %d: MUPs[%d] = %v, want %v", step, i, got.MUPs[i], want.MUPs[i])
					}
				}
				if err := mup.Verify(ix, tau, got.MUPs); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			st := e.Stats()
			if st.Deletes == 0 {
				t.Error("interleaving never deleted; the test lost its point")
			}
			if tc.name != "tiny-removed-log" && st.BidirectionalRepairs == 0 {
				t.Error("no bidirectional repairs despite deletions")
			}
			if tc.name == "tiny-removed-log" && st.FullSearches < 2 {
				t.Errorf("full searches = %d; a 4-entry removed log should have forced fallbacks", st.FullSearches)
			}
		})
	}
}

// TestBulkDeleteFallsBackToFullSearch: retracting a large fraction of
// the distinct combinations makes every shallow pattern suspect, so
// the engine must run a fresh search instead of a repair that would
// re-probe most of the lattice — and still answer correctly.
func TestBulkDeleteFallsBackToFullSearch(t *testing.T) {
	cards := []int{5, 5, 5}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	ref := make(map[string]int64)
	var rows [][]uint8
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		rows = append(rows, append([]uint8(nil), c...), append([]uint8(nil), c...))
		return true
	})
	applyRef(ref, rows, 1)
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	const tau = 2
	if _, err := e.MUPs(mup.Options{Threshold: tau}); err != nil {
		t.Fatal(err)
	}
	// Delete one row of 100 of the 125 combos: 80% of the distinct
	// combinations, far past the 5% default cutoff (and the 64 floor).
	batch := rows[:200:200]
	dedup := make(map[string]bool)
	var del [][]uint8
	for _, r := range batch {
		if !dedup[string(r)] {
			dedup[string(r)] = true
			del = append(del, r)
		}
		if len(del) == 100 {
			break
		}
	}
	applyRef(ref, del, -1)
	if err := e.Delete(del); err != nil {
		t.Fatal(err)
	}
	got, err := e.MUPs(mup.Options{Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BidirectionalRepairs != 0 {
		t.Errorf("bidirectional repairs = %d for a bulk delete, want 0 (full-search fallback)", st.BidirectionalRepairs)
	}
	if st.FullSearches != 2 {
		t.Errorf("full searches = %d, want 2", st.FullSearches)
	}
	want, err := mup.Naive(refIndex(schema, ref), mup.Options{Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("%d MUPs, want %d", len(got.MUPs), len(want.MUPs))
	}
	for i := range got.MUPs {
		if !got.MUPs[i].Equal(want.MUPs[i]) {
			t.Fatalf("MUPs[%d] = %v, want %v", i, got.MUPs[i], want.MUPs[i])
		}
	}
}

// TestDeleteTauBoundary pins the boundary semantics after a deletion:
// covered means cov ≥ τ, so a combination deleted down to exactly τ
// stays covered and one further delete uncovers it.
func TestDeleteTauBoundary(t *testing.T) {
	cards := []int{2, 2}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	const tau = 3
	var batch [][]uint8
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		for i := 0; i < tau+1; i++ {
			batch = append(batch, append([]uint8(nil), c...))
		}
		return true
	})
	if err := e.Append(batch); err != nil {
		t.Fatal(err)
	}
	res, err := e.MUPs(mup.Options{Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 0 {
		t.Fatalf("MUPs = %v before deletes, want none", res.MUPs)
	}
	// τ+1 → τ: still covered, still no MUPs.
	if err := e.Delete([][]uint8{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if res, err = e.MUPs(mup.Options{Threshold: tau}); err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 0 {
		t.Fatalf("cov exactly τ reported as uncovered: %v", res.MUPs)
	}
	// τ → τ-1: the combination is now the sole MUP.
	if err := e.Delete([][]uint8{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if res, err = e.MUPs(mup.Options{Threshold: tau}); err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 1 || res.MUPs[0].String() != "01" {
		t.Fatalf("MUPs = %v, want [01]", res.MUPs)
	}
	if st := e.Stats(); st.BidirectionalRepairs == 0 {
		t.Error("boundary deletes were not repaired bidirectionally")
	}
}

// TestDeleteLastRowOfCombo deletes a combination to zero and checks it
// is pruned, not kept as a ghost: the compacted oracle must not count
// it among the distinct combinations.
func TestDeleteLastRowOfCombo(t *testing.T) {
	cards := []int{2, 2}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	if err := e.Append([][]uint8{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete([][]uint8{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	ix := e.Index() // forces compaction of the signed delta
	if got := ix.NumDistinct(); got != 3 {
		t.Errorf("distinct combos = %d after deleting a combo's last row, want 3", got)
	}
	if got := ix.ComboCount([]uint8{0, 1}); got != 0 {
		t.Errorf("ghost combo survives with count %d", got)
	}
	if got, err := e.Coverage(pattern.Pattern{0, 1}); err != nil || got != 0 {
		t.Errorf("cov(01) = %d, %v, want 0", got, err)
	}
	// The combination can come back from zero.
	if err := e.Append([][]uint8{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Coverage(pattern.Pattern{0, 1}); got != 1 {
		t.Errorf("cov(01) = %d after re-append, want 1", got)
	}
}

// TestWindowEviction checks the ring-buffer semantics on a fresh
// engine: the engine must be equivalent, pattern by pattern, to a
// from-scratch build over only the most recent maxRows rows.
func TestWindowEviction(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(31))
	e := New(schema, Options{})
	e.SetWindow(50)
	if got := e.Window(); got != 50 {
		t.Fatalf("Window() = %d, want 50", got)
	}
	var all [][]uint8
	const tau = 4
	for step := 0; step < 8; step++ {
		batch := randomRows(rng, cards, 10+rng.Intn(30))
		all = append(all, batch...)
		if err := e.Append(batch); err != nil {
			t.Fatal(err)
		}
		live := all
		if len(live) > 50 {
			live = live[len(live)-50:]
		}
		if e.Rows() != int64(len(live)) {
			t.Fatalf("step %d: rows = %d, want %d", step, e.Rows(), len(live))
		}
		ref := make(map[string]int64)
		applyRef(ref, live, 1)
		ix := refIndex(schema, ref)
		pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
			got, err := e.Coverage(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := ix.Coverage(p); got != want {
				t.Fatalf("step %d: cov(%v) = %d, want %d", step, p, got, want)
			}
			return true
		})
		got, err := e.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mup.Naive(ix, mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.MUPs) != len(want.MUPs) {
			t.Fatalf("step %d: %d MUPs, want %d", step, len(got.MUPs), len(want.MUPs))
		}
		for i := range got.MUPs {
			if !got.MUPs[i].Equal(want.MUPs[i]) {
				t.Fatalf("step %d: MUPs[%d] = %v, want %v", step, i, got.MUPs[i], want.MUPs[i])
			}
		}
	}
	st := e.Stats()
	if st.Evictions == 0 || st.Window != 50 {
		t.Errorf("evictions = %d, window = %d; want evictions > 0 and window 50", st.Evictions, st.Window)
	}
}

// TestWindowPreexistingRows: rows present before the window is enabled
// have no arrival order; they evict first, in sorted combination order.
func TestWindowPreexistingRows(t *testing.T) {
	cards := []int{2, 2}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	if err := e.Append([][]uint8{{1, 1}, {0, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	e.SetWindow(2)
	if e.Rows() != 2 {
		t.Fatalf("rows = %d after SetWindow(2), want 2", e.Rows())
	}
	if e.Generation() == gen {
		t.Error("generation did not advance on window truncation")
	}
	// Sorted order: (0,0) < (0,1) < (1,1), so (0,0) is evicted first.
	if got, _ := e.Coverage(pattern.Pattern{0, 0}); got != 0 {
		t.Errorf("cov(00) = %d, want 0 (evicted as oldest)", got)
	}
	if got, _ := e.Coverage(pattern.Pattern{0, 1}); got != 1 {
		t.Errorf("cov(01) = %d, want 1", got)
	}
	// Appends after enabling are newest: the next overflow evicts (0,1).
	if err := e.Append([][]uint8{{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Coverage(pattern.Pattern{0, 1}); got != 0 {
		t.Errorf("cov(01) = %d after overflow, want 0", got)
	}
	if got, _ := e.Coverage(pattern.Pattern{1, 0}); got != 1 {
		t.Errorf("cov(10) = %d, want 1", got)
	}
}

// TestWindowTombstones interleaves value deletes with window eviction:
// a deleted row's log entry must be consumed as a tombstone, not
// double-retracted when eviction reaches it.
func TestWindowTombstones(t *testing.T) {
	cards := []int{2, 2, 2}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	e.SetWindow(3)
	r := func(a, b, c uint8) []uint8 { return []uint8{a, b, c} }
	// r1..r3 fill the window.
	if err := e.Append([][]uint8{r(0, 0, 0), r(0, 0, 1), r(0, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	// Delete r2 by value: live {r1, r3}, one tombstone pending.
	if err := e.Delete([][]uint8{r(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", st.Tombstones)
	}
	// r4, r5: live r1,r3,r4,r5 overflows → r1 evicted.
	if err := e.Append([][]uint8{r(0, 1, 1), r(1, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Coverage(pattern.Pattern{0, 0, 0}); got != 0 {
		t.Errorf("cov(r1) = %d, want 0 (evicted)", got)
	}
	// r6: eviction reaches r2's tombstoned entry (skipped) then r3.
	if err := e.Append([][]uint8{r(1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", e.Rows())
	}
	for _, tc := range []struct {
		row  []uint8
		want int64
	}{
		{r(0, 0, 1), 0}, // deleted by value
		{r(0, 1, 0), 0}, // evicted after the tombstone was consumed
		{r(0, 1, 1), 1},
		{r(1, 0, 0), 1},
		{r(1, 0, 1), 1},
	} {
		if got, _ := e.Coverage(pattern.FromValues(tc.row)); got != tc.want {
			t.Errorf("cov(%v) = %d, want %d", pattern.Pattern(tc.row), got, tc.want)
		}
	}
	st := e.Stats()
	if st.Tombstones != 0 {
		t.Errorf("tombstones = %d after reconciliation, want 0", st.Tombstones)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (tombstone pops are not evictions)", st.Evictions)
	}
	// Disabling the window stops eviction.
	e.SetWindow(0)
	if err := e.Append([][]uint8{r(1, 1, 0), r(1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 5 {
		t.Errorf("rows = %d with window disabled, want 5", e.Rows())
	}
}

// TestConcurrentMutations races readers against a writer interleaving
// appends and deletes; run under -race this validates the locking
// discipline of the signed mutation path, with a final from-scratch
// equivalence check.
func TestConcurrentMutations(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(77))
	seedRows := randomRows(rng, cards, 300)
	e := NewFromDataset(datasetOf(t, schema, seedRows), Options{CompactMinDistinct: 4, CompactFraction: 0.1})
	ref := make(map[string]int64)
	applyRef(ref, seedRows, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			probe := make(pattern.Pattern, len(cards))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j, c := range cards {
					if rng.Intn(2) == 0 {
						probe[j] = pattern.Wildcard
					} else {
						probe[j] = uint8(rng.Intn(c))
					}
				}
				if _, err := e.Coverage(probe); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.MUPs(mup.Options{Threshold: int64(4 + rng.Intn(2)*8)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i + 1))
	}
	wrng := rand.New(rand.NewSource(123))
	for b := 0; b < 30; b++ {
		if wrng.Intn(3) > 0 || len(ref) == 0 {
			batch := randomRows(wrng, cards, 15)
			applyRef(ref, batch, 1)
			if err := e.Append(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := drawDeletable(wrng, ref, 1+wrng.Intn(8))
			applyRef(ref, batch, -1)
			if err := e.Delete(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	ix := refIndex(schema, ref)
	if e.Rows() != ix.Total() {
		t.Fatalf("engine rows = %d, reference = %d", e.Rows(), ix.Total())
	}
	for _, tau := range []int64{4, 12} {
		got, err := e.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mup.Naive(ix, mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.MUPs) != len(want.MUPs) {
			t.Fatalf("τ=%d: %d MUPs, want %d", tau, len(got.MUPs), len(want.MUPs))
		}
		for i := range got.MUPs {
			if !got.MUPs[i].Equal(want.MUPs[i]) {
				t.Fatalf("τ=%d: MUPs[%d] = %v, want %v", tau, i, got.MUPs[i], want.MUPs[i])
			}
		}
	}
}

// TestIndexSnapshot checks Index() folds the delta in and yields an
// oracle equivalent to a fresh build.
func TestIndexSnapshot(t *testing.T) {
	cards := []int{2, 2, 3}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(5))
	e := New(schema, Options{})
	rows := randomRows(rng, cards, 150)
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	ix := e.Index()
	ref := index.Build(datasetOf(t, schema, rows))
	if ix.Total() != ref.Total() || ix.NumDistinct() != ref.NumDistinct() {
		t.Fatalf("snapshot total/distinct = %d/%d, want %d/%d",
			ix.Total(), ix.NumDistinct(), ref.Total(), ref.NumDistinct())
	}
	pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
		if got, want := ix.Coverage(p), ref.Coverage(p); got != want {
			t.Fatalf("snapshot cov(%v) = %d, want %d", p, got, want)
		}
		return true
	})
	if st := e.Stats(); st.DeltaDistinct != 0 {
		t.Errorf("delta not folded by Index(): %d entries", st.DeltaDistinct)
	}
}

// TestAppendSmallBatchManyWorkers pins the shardCounts chunk rounding:
// with more workers than ceil(rows/chunk) chunks (say 5 rows across 4
// workers), the trailing workers get no rows and their count tables
// must not enter the merge as nils.
func TestAppendSmallBatchManyWorkers(t *testing.T) {
	for rows := 1; rows <= 9; rows++ {
		for workers := 1; workers <= 8; workers++ {
			e := New(testSchema(t, []int{2, 3, 4}), Options{Workers: workers})
			batch := make([][]uint8, rows)
			for i := range batch {
				batch[i] = []uint8{uint8(i % 2), uint8(i % 3), uint8(i % 4)}
			}
			if err := e.Append(batch); err != nil {
				t.Fatalf("rows=%d workers=%d: %v", rows, workers, err)
			}
			if got := e.Stats().Rows; got != int64(rows) {
				t.Fatalf("rows=%d workers=%d: engine holds %d rows", rows, workers, got)
			}
		}
	}
}
