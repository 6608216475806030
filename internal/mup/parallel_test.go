package mup

import (
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/index"
)

// TestParallelBreakerArenaBudget covers a refining search whose level
// partitions outgrow the arena budget: at τ=1 every pattern matching a
// row is covered, so level ℓ of a ten-attribute binary schema holds
// C(10,ℓ) partitions per combination — 120 at level 3, far past
// arenaIDsPerCombo. The children that find no room are counted by the
// AND-chain prober, and the result, probe count and nodes visited must
// still equal the sequential breaker's.
func TestParallelBreakerArenaBudget(t *testing.T) {
	ix := index.Build(datagen.Uniform(300, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 4))
	if 120*ix.NumDistinct() <= arenaIDsPerCombo*(ix.NumDistinct()+1) {
		t.Fatalf("fixture: %d combinations no longer overflow the level arena", ix.NumDistinct())
	}
	for _, opts := range []Options{{Threshold: 1}, {Threshold: 2}, {Threshold: 1, MaxLevel: 5}} {
		want, err := PatternBreaker(ix, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := ParallelPatternBreaker(ix, ParallelOptions{Options: opts, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.MUPs) != len(want.MUPs) {
				t.Fatalf("%+v workers=%d: %d MUPs, want %d", opts, workers, len(got.MUPs), len(want.MUPs))
			}
			for i := range want.MUPs {
				if !got.MUPs[i].Equal(want.MUPs[i]) || got.Cov[i] != want.Cov[i] {
					t.Fatalf("%+v workers=%d: MUPs[%d] = %v cov %d, want %v cov %d",
						opts, workers, i, got.MUPs[i], got.Cov[i], want.MUPs[i], want.Cov[i])
				}
			}
			if got.Stats.CoverageProbes != want.Stats.CoverageProbes || got.Stats.NodesVisited != want.Stats.NodesVisited {
				t.Errorf("%+v workers=%d: %d probes / %d nodes, want %d / %d", opts, workers,
					got.Stats.CoverageProbes, got.Stats.NodesVisited, want.Stats.CoverageProbes, want.Stats.NodesVisited)
			}
		}
	}
}
