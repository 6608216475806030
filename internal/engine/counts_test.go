package engine

import (
	"math/rand"
	"testing"
)

// TestStoreKindEngineEquivalence runs the packed-vs-string suite on a
// second schedule seed: the flat table (packed keys) and the map
// (string keys) are the engine's two count-store layouts, and the
// layout is a memory/speed choice, never a semantic one.
func TestStoreKindEngineEquivalence(t *testing.T) {
	packedVsStringSuite(t, 23)
}

// TestStatsStoreFields pins the store observability surface: occupancy
// stays a ratio in (0,1] for slotted layouts and resident bytes grow
// with the live set.
func TestStatsStoreFields(t *testing.T) {
	cards := []int{4, 4, 4}
	schema := testSchema(t, cards)
	e := NewSharded(schema, 2, Options{})
	rng := rand.New(rand.NewSource(7))
	if err := e.Append(randomRows(rng, cards, 200)); err != nil {
		t.Fatal(err)
	}
	for i, sh := range e.Stats().Shards {
		if sh.Store != "flat" {
			t.Fatalf("shard %d store = %q, want flat", i, sh.Store)
		}
		if sh.Distinct > 0 {
			if sh.StoreOccupancy <= 0 || sh.StoreOccupancy > 1 {
				t.Errorf("shard %d occupancy = %v, want in (0,1]", i, sh.StoreOccupancy)
			}
			if sh.StoreBytes <= 0 {
				t.Errorf("shard %d store bytes = %d, want > 0", i, sh.StoreBytes)
			}
		}
	}
}
