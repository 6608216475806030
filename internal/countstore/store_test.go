package countstore

import (
	"math/rand"
	"testing"

	"coverage/internal/pattern"
)

// refStore is the reference the flat table is checked against: a plain
// map with the same signed-count contract (a count reaching zero is
// deleted, never stored).
type refStore map[pattern.PackedKey]int64

func (r refStore) Add(k pattern.PackedKey, n int64) int64 {
	m := r[k] + n
	if m == 0 {
		delete(r, k)
		return 0
	}
	r[k] = m
	return m
}

func (r refStore) Set(k pattern.PackedKey, n int64) {
	if n == 0 {
		delete(r, k)
		return
	}
	r[k] = n
}

func (r refStore) Negate() {
	for k, n := range r {
		r[k] = -n
	}
}

// checkMatchesRef compares f's full Range contents, Len and Mem.Live
// against the reference.
func checkMatchesRef(t *testing.T, f *Flat, ref refStore) {
	t.Helper()
	got := map[pattern.PackedKey]int64{}
	f.Range(func(k pattern.PackedKey, n int64) {
		if n == 0 {
			t.Fatalf("Range yielded zero count for %v", k)
		}
		got[k] = n
	})
	if len(got) != len(ref) {
		t.Fatalf("Range yields %d keys, reference %d", len(got), len(ref))
	}
	for k, n := range ref {
		if got[k] != n {
			t.Fatalf("Range[%v]=%d want %d", k, got[k], n)
		}
	}
	if m := f.Mem(); m.Live != len(ref) || f.Len() != len(ref) {
		t.Fatalf("Len=%d Mem.Live=%d want %d", f.Len(), m.Live, len(ref))
	}
}

// TestStoreEquivalenceSchedule drives the flat table through a
// randomized schedule of signed adds, absolute sets, deletes-to-zero,
// negations, reserves and insert announcements, comparing Get/Add
// returns and Len after every step and the full Range contents at the
// end against the map reference.
func TestStoreEquivalenceSchedule(t *testing.T) {
	const keyBits = 10
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, ref := NewFlat(0), refStore{}
		keys := make([]pattern.PackedKey, 64)
		for i := range keys {
			keys[i] = pattern.PackedKey{uint64(rng.Intn(1 << keyBits)), uint64(rng.Intn(2))}
		}
		for step := 0; step < 5000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(20); {
			case op < 10: // signed add
				n := int64(rng.Intn(9) - 4)
				if got, want := f.Add(k, n), ref.Add(k, n); got != want {
					t.Fatalf("seed %d step %d: Add(%v,%d) = %d, reference %d", seed, step, k, n, got, want)
				}
			case op < 13: // absolute set
				n := int64(rng.Intn(5) - 2)
				f.Set(k, n)
				ref.Set(k, n)
			case op < 15: // delete to zero
				c := ref[k]
				f.Add(k, -c)
				ref.Add(k, -c)
			case op < 16:
				f.Negate()
				ref.Negate()
			case op < 17:
				f.Reserve(rng.Intn(200))
			case op < 18:
				f.ExpectInserts(rng.Intn(200))
			default: // read
				if got, want := f.Get(k), ref[k]; got != want {
					t.Fatalf("seed %d step %d: Get(%v)=%d reference %d", seed, step, k, got, want)
				}
			}
			if f.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len=%d reference %d", seed, step, f.Len(), len(ref))
			}
		}
		checkMatchesRef(t, f, ref)
	}
}
