package countstore

import (
	"testing"

	"coverage/internal/pattern"
)

// FuzzStoreEquivalence interprets the fuzz input as an op tape run
// against the flat table and the map reference over a 12-bit key
// space; any divergence is a bug in the flat table.
func FuzzStoreEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x81, 3, 4, 0xFF, 0, 0, 7})
	f.Add([]byte{0x20, 0x20, 0x40, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) {
		flat, ref := NewFlat(0), refStore{}
		for pos := 0; pos+3 <= len(tape); pos += 3 {
			op, lo, hi := tape[pos], tape[pos+1], tape[pos+2]
			k := pattern.PackedKey{uint64(lo) | uint64(hi&0xF)<<8, 0}
			n := int64(int8(hi)) // signed payload reusing hi
			switch op % 6 {
			case 0, 1, 2:
				if got, want := flat.Add(k, n), ref.Add(k, n); got != want {
					t.Fatalf("Add(%v,%d): flat=%d reference=%d", k, n, got, want)
				}
			case 3:
				flat.Set(k, n)
				ref.Set(k, n)
			case 4:
				flat.Negate()
				ref.Negate()
			case 5:
				if got, want := flat.Get(k), ref[k]; got != want {
					t.Fatalf("Get(%v): flat=%d reference=%d", k, got, want)
				}
			}
			if flat.Len() != len(ref) {
				t.Fatalf("Len: flat=%d reference=%d", flat.Len(), len(ref))
			}
		}
		checkMatchesRef(t, flat, ref)
	})
}
