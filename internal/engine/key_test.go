package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// TestStatsDistinctCountsDeltaResident pins the /stats accounting fix:
// with compaction suppressed, distinct combinations appended after the
// last base rebuild live only in the deltas, and Stats.Distinct (total
// and per shard) must still count them — and must drop combinations
// whose multiplicity has fallen back to zero, which the old
// base-NumDistinct sum kept as ghosts.
func TestStatsDistinctCountsDeltaResident(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cards := []int{4, 4, 4}
			schema := testSchema(t, cards)
			// Thresholds high enough that nothing compacts during the test.
			e := NewSharded(schema, shards, Options{CompactMinDistinct: 1 << 20})
			if err := e.Append([][]uint8{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {0, 0, 0}}); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Distinct != 3 {
				t.Fatalf("after delta-only appends Distinct = %d, want 3", st.Distinct)
			}
			sum := 0
			base := 0
			for i, sh := range st.Shards {
				sum += sh.Distinct
				base += e.cores[i].base.NumDistinct()
			}
			if sum != 3 {
				t.Fatalf("per-shard Distinct sums to %d, want 3", sum)
			}
			if base != 0 {
				t.Fatalf("precondition lost: %d combinations compacted into bases, want all delta-resident", base)
			}
			// Removing a combination entirely must drop it from the live
			// count even though its base (if any) still holds it.
			if err := e.Delete([][]uint8{{1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.Distinct != 2 {
				t.Fatalf("after full retraction Distinct = %d, want 2", st.Distinct)
			}
		})
	}
}

// TestShardCountsEmptyBatch is the regression for the worker-clamp
// panic: an empty row batch clamps the worker count to zero, and
// shardCounts must answer with no shards instead of indexing one that
// does not exist. countBatch must survive the same input on both the
// single-core and the routed multi-core path.
func TestShardCountsEmptyBatch(t *testing.T) {
	se := NewSharded(testSchema(t, []int{2, 3}), 1, Options{})
	if got := se.shardCounts(nil, 8); len(got) != 0 {
		t.Fatalf("shardCounts(no rows) returned %d shards, want none", len(got))
	}
	if got := se.shardCounts([][]uint8{}, 0); len(got) != 0 {
		t.Fatalf("shardCounts(workers=0) returned %d shards, want none", len(got))
	}
	for _, shards := range []int{1, 4} {
		e := NewSharded(testSchema(t, []int{2, 3}), shards, Options{})
		muts := e.countBatch(nil)
		if len(muts) != shards {
			t.Fatalf("countBatch(no rows) on %d cores returned %d maps", shards, len(muts))
		}
		for i, m := range muts {
			if m.size() != 0 {
				t.Fatalf("countBatch(no rows) core %d map has %d entries", i, m.size())
			}
		}
	}
}

// TestShardProberCoverageBatch pins the merged fan-out probe: a batch
// against the sharded prober must answer exactly like per-pattern
// probes, count one logical probe per pattern, and cost a single
// merged batch (shard-major) rather than one fan-out per candidate.
func TestShardProberCoverageBatch(t *testing.T) {
	cards := []int{3, 4, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(9))
	e := NewSharded(schema, 4, Options{})
	if err := e.Append(randomRows(rng, cards, 300)); err != nil {
		t.Fatal(err)
	}
	pr := e.Oracle().NewCoverageProber()
	sp, ok := pr.(*shardProber)
	if !ok {
		t.Fatalf("sharded oracle prober is %T, want *shardProber", pr)
	}
	var ps []pattern.Pattern
	pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
		ps = append(ps, p.Clone())
		return true
	})
	want := make([]int64, len(ps))
	ref := e.Oracle().NewCoverageProber()
	for i, p := range ps {
		want[i] = ref.Coverage(p)
	}
	got := make([]int64, len(ps))
	index.CoverageAll(pr, ps, got)
	for i := range ps {
		if want[i] != got[i] {
			t.Fatalf("batched cov(%v) = %d, scalar %d", ps[i], got[i], want[i])
		}
	}
	if sp.Probes() != int64(len(ps)) {
		t.Errorf("batch counted %d logical probes for %d patterns", sp.Probes(), len(ps))
	}
	if sp.batches != 1 {
		t.Errorf("batch counted %d merged passes, want 1", sp.batches)
	}
}

// TestPackedVsStringEngineEquivalence drives the same randomized
// mutation schedule into a packed-key engine and a string-key engine
// (the test-only representation override) over one packable schema:
// every coverage answer, MUP set, statistic and exported state must be
// identical — the key representation is invisible above the maps.
func TestPackedVsStringEngineEquivalence(t *testing.T) {
	packedVsStringSuite(t, 17)
}

// packedVsStringSuite is the packed-vs-string equivalence check for one
// schedule seed (seedMul × the shard count). The two engines also run
// the two count-store layouts — the flat table on packed keys, the map
// on string keys — so the suite doubles as the layout equivalence
// check. After the schedule, each engine's exported state must restore
// onto the other representation unchanged.
func packedVsStringSuite(t *testing.T, seedMul int64) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cards := []int{3, 4, 2, 3}
			schema := testSchema(t, cards)
			opts := Options{CompactMinDistinct: 2, CompactFraction: 0.2}
			sopts := opts
			sopts.stringKeys = true
			packed := NewSharded(schema, shards, opts)
			str := NewSharded(schema, shards, sopts)
			if !packed.keys.packed {
				t.Fatal("precondition: default engine should use packed keys on this schema")
			}
			if str.keys.packed {
				t.Fatal("precondition: stringKeys override ignored")
			}
			if p, s := packed.Stats().Shards[0].Store, str.Stats().Shards[0].Store; p != "flat" || s != "map" {
				t.Fatalf("shard stores: packed %q, string-keyed %q; want flat and map", p, s)
			}
			var ps []pattern.Pattern
			pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
				ps = append(ps, p.Clone())
				return true
			})
			sameCoverage := func(what string, got, want *Engine) {
				t.Helper()
				w, err := want.CoverageBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				g, err := got.CoverageBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ps {
					if w[i] != g[i] {
						t.Fatalf("%s: cov(%v) = %d, want %d", what, ps[i], g[i], w[i])
					}
				}
			}
			rng := rand.New(rand.NewSource(seedMul * int64(shards)))
			const tau = 4
			for step := 0; step < 25; step++ {
				switch {
				case step == 10:
					packed.SetWindow(60)
					str.SetWindow(60)
				case rng.Intn(3) > 0 || packed.Rows() == 0:
					batch := randomRows(rng, cards, 5+rng.Intn(20))
					if err := packed.Append(batch); err != nil {
						t.Fatal(err)
					}
					if err := str.Append(batch); err != nil {
						t.Fatal(err)
					}
				default:
					batch := drawDeletableEngine(rng, packed, 1+rng.Intn(5))
					if len(batch) == 0 {
						continue
					}
					if err := packed.Delete(batch); err != nil {
						t.Fatal(err)
					}
					if err := str.Delete(batch); err != nil {
						t.Fatal(err)
					}
				}
				pst, sst := packed.Stats(), str.Stats()
				if pst.Rows != sst.Rows || pst.Distinct != sst.Distinct || pst.Tombstones != sst.Tombstones {
					t.Fatalf("step %d: stats diverge: packed rows/distinct/tombstones %d/%d/%d, string %d/%d/%d",
						step, pst.Rows, pst.Distinct, pst.Tombstones, sst.Rows, sst.Distinct, sst.Tombstones)
				}
				sameCoverage(fmt.Sprintf("step %d: packed vs string-keyed", step), packed, str)
				wres, err := str.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				gres, err := packed.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				if len(wres.MUPs) != len(gres.MUPs) {
					t.Fatalf("step %d: %d MUPs packed, %d string-keyed", step, len(gres.MUPs), len(wres.MUPs))
				}
				for i := range wres.MUPs {
					if !wres.MUPs[i].Equal(gres.MUPs[i]) {
						t.Fatalf("step %d: MUPs[%d] = %v packed, %v string-keyed", step, i, gres.MUPs[i], wres.MUPs[i])
					}
				}
			}
			// The serialized states must agree key for key, and each
			// restores onto the other representation unchanged.
			pstate, sstate := packed.ExportState(), str.ExportState()
			if len(pstate.Counts) != len(sstate.Counts) {
				t.Fatalf("exported %d packed counts, %d string-keyed", len(pstate.Counts), len(sstate.Counts))
			}
			for k, c := range sstate.Counts {
				if pstate.Counts[k] != c {
					t.Fatalf("exported count of %v: %d packed, %d string-keyed", pattern.Pattern(k), pstate.Counts[k], c)
				}
			}
			for _, r := range []struct {
				what  string
				state *State
				onto  Options
			}{
				{"string-keyed restore of packed state", pstate, sopts},
				{"packed restore of string-keyed state", sstate, opts},
			} {
				restored, err := NewFromState(r.state, r.onto)
				if err != nil {
					t.Fatal(err)
				}
				if restored.Rows() != packed.Rows() {
					t.Fatalf("%s: rows = %d, want %d", r.what, restored.Rows(), packed.Rows())
				}
				sameCoverage(r.what, restored, packed)
			}
		})
	}
}
