package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// sameResult fails t unless got and want hold the same MUPs with the
// same cached coverage values, in the same order, reporting the first
// difference.
func sameResult(t *testing.T, what string, got, want *mup.Result) {
	t.Helper()
	if len(got.Cov) != len(got.MUPs) || len(want.Cov) != len(want.MUPs) {
		t.Fatalf("%s: %d Cov for %d MUPs, want %d for %d", what, len(got.Cov), len(got.MUPs), len(want.Cov), len(want.MUPs))
	}
	for i := range min(len(got.MUPs), len(want.MUPs)) {
		if !got.MUPs[i].Equal(want.MUPs[i]) || got.Cov[i] != want.Cov[i] {
			t.Fatalf("%s: MUPs[%d] = %v cov %d, want %v cov %d (%d vs %d MUPs)",
				what, i, got.MUPs[i], got.Cov[i], want.MUPs[i], want.Cov[i], len(got.MUPs), len(want.MUPs))
		}
	}
	if len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("%s: %d MUPs, want %d", what, len(got.MUPs), len(want.MUPs))
	}
}

// sameCost fails t unless the two searches report the same logical
// work: one probe per live candidate, one node per candidate visited.
func sameCost(t *testing.T, what string, got, want *mup.Result) {
	t.Helper()
	if got.Stats.CoverageProbes != want.Stats.CoverageProbes || got.Stats.NodesVisited != want.Stats.NodesVisited {
		t.Fatalf("%s: %d probes / %d nodes, want %d / %d", what,
			got.Stats.CoverageProbes, got.Stats.NodesVisited, want.Stats.CoverageProbes, want.Stats.NodesVisited)
	}
}

// latticeAtMost returns the number of patterns of level ≤ l over
// cards, saturating at limit.
func latticeAtMost(cards []int, l int, limit float64) float64 {
	// e[k] is the number of level-k patterns over the attributes seen
	// so far (elementary symmetric polynomials of the cardinalities).
	e := make([]float64, l+1)
	e[0] = 1
	for _, c := range cards {
		for k := l; k >= 1; k-- {
			e[k] += e[k-1] * float64(c)
		}
	}
	var n float64
	for _, v := range e {
		n += v
	}
	return min(n, limit)
}

// FuzzRefineEquivalence drives the partition-refinement descent — the
// engine's full search, over one or several shard cores and one or
// several workers — against the Appendix A AND-chain prober under
// PatternBreaker: MUPs, cached coverage values, probe counts and nodes
// visited must all agree, and on schemas of at most five attributes
// the MUPs must also match the naïve enumeration. Schemas span 1–16
// attributes, sometimes with a cardinality-254 attribute, plus a
// 17-attribute schema past 128 packed bits that takes the string-key
// paths of both the index and the search. Thresholds include τ ≤ 0
// (everything covered) and τ above the row count (the root uncovered).
func FuzzRefineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(15), uint8(4), uint8(4), uint8(2), uint8(1))
	f.Add(int64(4), uint8(0x84), uint8(2), uint8(0), uint8(2), uint8(0))
	f.Add(int64(5), uint8(0xF0), uint8(3), uint8(2), uint8(1), uint8(1))
	f.Add(int64(6), uint8(4), uint8(7), uint8(0), uint8(0), uint8(1))
	f.Add(int64(7), uint8(3), uint8(8), uint8(9), uint8(2), uint8(0))
	f.Add(int64(8), uint8(11), uint8(2), uint8(0), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, shape, tauSel, levelSel, shardSel, workerSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		var cards []int
		if shape >= 0xF0 {
			// 17 one-byte fields: the narrowest schema past 128 bits.
			cards = make([]int, 17)
			for i := range cards {
				cards[i] = 128 + rng.Intn(127)
			}
		} else {
			cards = make([]int, 1+int(shape%16))
			for i := range cards {
				cards[i] = 1 + rng.Intn(4)
			}
			if shape&0x80 != 0 {
				cards[rng.Intn(len(cards))] = 254
			}
		}
		d := len(cards)
		schema := testSchema(t, cards)

		// Skewed rows (low codes favored) so the covered region has
		// depth; a wide attribute also sees its top code.
		rows := make([][]uint8, rng.Intn(160))
		for i := range rows {
			row := make([]uint8, d)
			for j, c := range cards {
				v := 0
				for v < c-1 && rng.Intn(3) == 0 {
					v++
				}
				if c > 8 && rng.Intn(4) == 0 {
					v = c - 1 - rng.Intn(2)
				}
				row[j] = uint8(v)
			}
			rows[i] = row
		}
		total := int64(len(rows))
		tau := []int64{-1, 0, 1, 2, 3, 5, 12, total, total + 1}[int(tauSel)%9]
		opts := mup.Options{Threshold: tau, MaxLevel: int(levelSel)%(d+3) - 1}

		// Keep every search small: lower the level bound until the
		// candidates the descent may visit — each covered pattern's
		// children — fit a budget. With τ ≥ 1 a covered pattern matches
		// a row, so each row covers at most 2^d patterns.
		sumCards := 0
		ones := make([]int, d)
		for i, c := range cards {
			sumCards += c
			ones[i] = 1
		}
		const budget = 200000
		for {
			bound := opts.MaxLevel
			if bound <= 0 || bound > d {
				bound = d
			}
			coveredMax := latticeAtMost(cards, bound, budget)
			if tau >= 1 {
				coveredMax = min(coveredMax, float64(len(rows))*latticeAtMost(ones, bound, budget))
			}
			if coveredMax*float64(sumCards) <= budget || bound == 1 {
				break
			}
			opts.MaxLevel = bound - 1
		}

		shards := []int{1, 2, 4}[int(shardSel)%3]
		workers := []int{1, 4}[int(workerSel)%2]
		e := NewSharded(schema, shards, Options{Workers: workers})
		if len(rows) > 0 {
			if err := e.Append(rows); err != nil {
				t.Fatal(err)
			}
		}
		oracle := e.Oracle()
		if _, ok := oracle.(index.Refinable); !ok {
			t.Fatalf("engine oracle %T does not refine", oracle)
		}
		got, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}

		ds := datasetOf(t, schema, rows)
		bare := index.BuildFromDistinct(ds.Distinct())
		want, err := mup.PatternBreaker(bare, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "refinement vs AND chain", got, want)
		sameCost(t, "refinement vs AND chain", got, want)

		served, err := e.MUPs(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "engine vs AND chain", served, want)
		sameCost(t, "engine vs AND chain", served, want)

		if d <= 5 && pattern.TotalPatterns(cards) <= 1<<16 {
			naive, err := mup.Naive(bare, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "refinement vs naive", got, naive)
		}
	})
}

// probeCube is the 3×3×3 fixture of the mup probe pins: the 0/1
// sub-cube holds three rows per combination, every value-2 slice is
// empty.
func probeCube(t testing.TB) (*dataset.Schema, [][]uint8) {
	cards := []int{3, 3, 3}
	var rows [][]uint8
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 2; b++ {
			for c := uint8(0); c < 2; c++ {
				for k := 0; k < 3; k++ {
					rows = append(rows, []uint8{a, b, c})
				}
			}
		}
	}
	return testSchema(t, cards), rows
}

// TestFullSearchProbeCounts pins the cost metric of the engine's full
// search: refinement answers every live candidate without an AND
// chain, yet reports exactly the probes and nodes PatternBreaker's
// prober pays — on the 3×3×3 probe fixture (pinned absolutely: 40
// nodes, 30 probes at τ=2) and on BlueNile at the paper's size at
// τ=250, at one and two shard cores.
func TestFullSearchProbeCounts(t *testing.T) {
	bn := datagen.BlueNile(116300, 7)
	bnRows := make([][]uint8, bn.NumRows())
	for i := range bnRows {
		bnRows[i] = bn.Row(i)
	}
	cubeSchema, cubeRows := probeCube(t)
	for _, tc := range []struct {
		name          string
		schema        *dataset.Schema
		rows          [][]uint8
		tau           int64
		nodes, probes int64 // 0: compare with PatternBreaker only
	}{
		{"cube", cubeSchema, cubeRows, 2, 40, 30},
		{"bluenile", bn.Schema(), bnRows, 250, 0, 0},
	} {
		bare := index.BuildFromDistinct(datasetOf(t, tc.schema, tc.rows).Distinct())
		want, err := mup.PatternBreaker(bare, mup.Options{Threshold: tc.tau})
		if err != nil {
			t.Fatal(err)
		}
		if tc.nodes != 0 && (want.Stats.NodesVisited != tc.nodes || want.Stats.CoverageProbes != tc.probes) {
			t.Fatalf("%s: PatternBreaker visited %d nodes with %d probes, pinned %d / %d",
				tc.name, want.Stats.NodesVisited, want.Stats.CoverageProbes, tc.nodes, tc.probes)
		}
		for _, shards := range []int{1, 2} {
			e := NewSharded(tc.schema, shards, Options{})
			if err := e.Append(tc.rows); err != nil {
				t.Fatal(err)
			}
			got, err := e.MUPs(mup.Options{Threshold: tc.tau})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s/shards=%d", tc.name, shards)
			sameResult(t, what, got, want)
			sameCost(t, what, got, want)
			if got.Stats.Algorithm != "parallel-pattern-breaker" {
				t.Errorf("%s: algorithm %q", what, got.Stats.Algorithm)
			}
		}
	}
}
