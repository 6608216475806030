package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/mup"
)

// benchCards is a 13-attribute schema in the AirBnB shape the paper's
// sweeps use — wide enough that the packed representation carries real
// weight (13 fields, still well under 128 bits).
var benchCards = []int{8, 6, 5, 4, 7, 3, 5, 6, 4, 3, 5, 4, 6}

// BenchmarkEngineAppend measures the batch ingest hot path — count,
// shard-local route, fan-out apply — at 1 and 4 shard cores. Run with
// -cpu 1,4: with one processor the sharded cells price the routing
// overhead alone; with four they measure the parallel win the packed
// keys and the contiguous per-core slices exist to unlock.
func BenchmarkEngineAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seed := randomRows(rng, benchCards, 20000)
	batch := randomRows(rng, benchCards, 1000)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := NewSharded(testSchema(b, benchCards), shards, Options{})
			if err := e.Append(seed); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMUPSearch measures the full level-synchronous MUP
// search against the folded per-shard bases — the path a first query
// at a fresh threshold takes. Two shapes: the 13-attribute AirBnB-like
// schema under a level bound (the warm-up search of the dashboard
// workloads), at 1 and 4 shard cores, and BlueNile at the paper's size
// (116,300×7), unbounded at τ=250 (the cold audit search), at 1 and 2
// shard cores. Run with -cpu 1,4 alongside BenchmarkEngineAppend.
func BenchmarkEngineMUPSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seed := randomRows(rng, benchCards, 20000)
	bn := datagen.BlueNile(116300, 42)
	bnRows := make([][]uint8, bn.NumRows())
	for i := range bnRows {
		bnRows[i] = bn.Row(i)
	}
	// τ at 2.5% of the rows with a level bound keeps the 13-attribute
	// MUP frontier in the upper lattice — a benchable descent that
	// still crosses tens of thousands of candidates.
	cells := []struct {
		name   string
		schema *dataset.Schema
		rows   [][]uint8
		shards []int
		opts   mup.Options
	}{
		{"", testSchema(b, benchCards), seed, []int{1, 4}, mup.Options{Threshold: 500, MaxLevel: 3}},
		{"bluenile/", bn.Schema(), bnRows, []int{1, 2}, mup.Options{Threshold: 250}},
	}
	for _, cell := range cells {
		for _, shards := range cell.shards {
			b.Run(fmt.Sprintf("%sshards=%d", cell.name, shards), func(b *testing.B) {
				e := NewSharded(cell.schema, shards, Options{})
				if err := e.Append(cell.rows); err != nil {
					b.Fatal(err)
				}
				oracle := e.Oracle()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: cell.opts}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
