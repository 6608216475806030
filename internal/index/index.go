// Package index implements the coverage oracle of Appendix A of
// Asudeh et al. (ICDE 2019): inverted indices over the distinct value
// combinations of a dataset, one bit vector per attribute value, with
// cov(P) computed as a word-wise AND of the vectors of P's
// deterministic elements followed by a dot product with the
// per-combination multiplicity vector.
package index

import (
	"fmt"
	"sort"
	"sync"

	"coverage/internal/bitvec"
	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// Index is the immutable coverage oracle for one dataset. Build it
// once; probe it any number of times. Concurrent probes must use
// separate Probers.
//
// The full-combo multiplicity table — hit by every deepest-level probe
// of the MUP descent — lives in exactly one of three layouts: a flat
// open-addressed table or dense direct-indexed vector over packed keys
// (internal/countstore) for packable schemas, or the legacy string map
// for schemas past 128 bits and KindMap-forced builds.
type Index struct {
	schema  *dataset.Schema
	cards   []int
	vecs    [][]*bitvec.Vector // [attribute][value] → bits over distinct combos
	density [][]int            // [attribute][value] → set-bit count of the vector
	counts  []int64            // multiplicity per distinct combo
	rows    []uint8            // distinct combos in row form: combo k is rows[k*d:(k+1)*d]
	combos  map[string]int64   // full combo → multiplicity (string fallback)
	flat    *countstore.Probe  // full combo → multiplicity (packed, flat family)
	dense   *countstore.Dense  // full combo → multiplicity (packed, dense)
	codec   *pattern.Codec     // set iff flat or dense is
	rawKeys bool               // flat uses the raw byte-aligned codec
	total   int64
	nDist   int
}

// Build constructs the oracle for d (deduplicating internally).
func Build(d *dataset.Dataset) *Index {
	return BuildFromDistinct(d.Distinct())
}

// BuildFromDistinct constructs the oracle from an already
// deduplicated dataset, auto-selecting the combo-store layout.
func BuildFromDistinct(dd *dataset.Distinct) *Index {
	return BuildFromDistinctKind(dd, countstore.KindAuto, 0)
}

// BuildFromDistinctKind is BuildFromDistinct with a forced combo-store
// layout, so an engine that pinned a per-shard store kind builds its
// base oracles to match. denseBits is the dense layout's key-space
// budget (0 means countstore.DefaultDenseBits) — engines thread their
// resolved budget through so the oracle picks the same layout as the
// shard stores. Kinds the schema cannot support degrade the usual way
// (dense → flat; everything → string map past 128 bits).
func BuildFromDistinctKind(dd *dataset.Distinct, kind countstore.Kind, denseBits int) *Index {
	cards := dd.Schema.Cards()
	ix := &Index{
		schema: dd.Schema,
		cards:  cards,
		vecs:   make([][]*bitvec.Vector, len(cards)),
		counts: dd.Counts,
		rows:   make([]uint8, 0, len(dd.Combos)*len(cards)),
		nDist:  len(dd.Combos),
	}
	ix.initComboStore(kind, denseBits, len(dd.Combos))
	for i, c := range cards {
		ix.vecs[i] = make([]*bitvec.Vector, c)
		for v := 0; v < c; v++ {
			ix.vecs[i][v] = bitvec.New(ix.nDist)
		}
	}
	for k, combo := range dd.Combos {
		for i, v := range combo {
			ix.vecs[i][v].Set(k)
		}
		ix.rows = append(ix.rows, combo...)
		ix.setCombo(combo, dd.Counts[k])
		ix.total += dd.Counts[k]
	}
	ix.density = make([][]int, len(cards))
	for i, c := range cards {
		ix.density[i] = make([]int, c)
		for v := 0; v < c; v++ {
			ix.density[i][v] = ix.vecs[i][v].Count()
		}
	}
	return ix
}

// initComboStore picks and allocates the full-combo count store.
func (ix *Index) initComboStore(kind Kind, denseBits, hint int) {
	codec := pattern.NewCodec(ix.cards)
	if !codec.Packable() || kind == countstore.KindMap {
		ix.combos = make(map[string]int64, hint)
		return
	}
	switch countstore.Resolve(kind, codec, denseBits) {
	case countstore.KindDense:
		ix.codec = codec
		bits, _ := codec.PackedBits()
		ix.dense = countstore.NewDense(bits)
	default:
		// The flat table only hashes its keys, so it trades the
		// bit-compact layout for the byte-aligned raw one when the
		// schema fits: every deepest-level probe then packs with two
		// word loads instead of a per-attribute shift-and-mask loop.
		if raw := pattern.NewRawCodec(len(ix.cards)); raw.Packable() {
			codec = raw
			ix.rawKeys = true
		}
		ix.codec = codec
		ix.flat = countstore.NewProbe(hint)
	}
}

// Kind aliases countstore.Kind for callers forcing a combo-store
// layout at build time.
type Kind = countstore.Kind

func (ix *Index) setCombo(combo []uint8, n int64) {
	switch {
	case ix.flat != nil:
		ix.flat.Set(ix.codec.PackedKey(pattern.Pattern(combo)), n)
	case ix.dense != nil:
		ix.dense.Set(ix.codec.PackedKey(pattern.Pattern(combo)), n)
	default:
		ix.combos[string(combo)] = n
	}
}

// fullCount is the full-combo multiplicity lookup backing ComboCount
// and the deepest-level probe fast path: a packed-key table probe on
// packable schemas, a string-map lookup otherwise.
func (ix *Index) fullCount(p pattern.Pattern) int64 {
	switch {
	case ix.flat != nil:
		if ix.rawKeys {
			return ix.flat.GetRaw(p)
		}
		return ix.flat.Get(ix.codec.PackedKey(p))
	case ix.dense != nil:
		return ix.dense.Get(ix.codec.PackedKey(p))
	}
	return ix.combos[string(p)]
}

// ComboStoreKind reports which layout holds the full-combo counts
// (KindMap covers both forced-map builds and the >128-bit string
// fallback).
func (ix *Index) ComboStoreKind() Kind {
	switch {
	case ix.flat != nil:
		return countstore.KindFlat
	case ix.dense != nil:
		return countstore.KindDense
	}
	return countstore.KindMap
}

// BuildFromCounts constructs the oracle from a combo→multiplicity map
// (keys are raw value-code strings, as produced by pattern.Key on a
// fully deterministic pattern). Combination order is the sorted key
// order, making the result deterministic for a fixed map. This is the
// rebuild path of the incremental engine: it skips row storage and
// re-deduplication entirely.
//
// Combinations whose count has decremented to zero (or below) are
// pruned rather than kept as ghosts: a combo with no live rows must not
// occupy a bit-vector column, or NumDistinct and the probe windows
// would keep paying for rows that no longer exist.
func BuildFromCounts(schema *dataset.Schema, counts map[string]int64) *Index {
	return BuildFromCountsKind(schema, counts, countstore.KindAuto, 0)
}

// BuildFromCountsKind is BuildFromCounts with a forced combo-store
// layout and dense-budget (see BuildFromDistinctKind).
func BuildFromCountsKind(schema *dataset.Schema, counts map[string]int64, kind countstore.Kind, denseBits int) *Index {
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		if c <= 0 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dd := &dataset.Distinct{
		Schema: schema,
		Combos: make([][]uint8, len(keys)),
		Counts: make([]int64, len(keys)),
	}
	for i, k := range keys {
		dd.Combos[i] = []uint8(k)
		dd.Counts[i] = counts[k]
	}
	return BuildFromDistinctKind(dd, kind, denseBits)
}

// Schema returns the schema the oracle was built over.
func (ix *Index) Schema() *dataset.Schema { return ix.schema }

// Cards returns the cardinality vector.
func (ix *Index) Cards() []int { return ix.cards }

// Total returns the number of rows of the underlying dataset —
// the coverage of the all-wildcard root pattern.
func (ix *Index) Total() int64 { return ix.total }

// NumDistinct returns the number of distinct value combinations.
func (ix *Index) NumDistinct() int { return ix.nDist }

// ComboCount returns the multiplicity of one full value combination
// (zero if absent). This is the level-d fast path used by the
// bottom-up algorithm.
func (ix *Index) ComboCount(combo []uint8) int64 {
	return ix.fullCount(pattern.Pattern(combo))
}

// Coverage returns cov(P). It allocates a probe buffer per call; hot
// loops should hold a Prober instead.
func (ix *Index) Coverage(p pattern.Pattern) int64 {
	return ix.NewProber().Coverage(p)
}

// Range calls fn for every distinct value combination with its
// multiplicity, in unspecified order. The combo string is the raw
// value-code key (as produced by pattern.Key on a fully deterministic
// pattern). Because the index is immutable, Range is safe to call
// concurrently with probes — this is how the engine snapshots its bulk
// state without copying the combo map under a lock.
func (ix *Index) Range(fn func(combo string, count int64)) {
	switch {
	case ix.flat != nil:
		buf := make([]uint8, 0, len(ix.cards))
		ix.flat.Range(func(k pattern.PackedKey, c int64) {
			buf = ix.codec.AppendUnpack(buf[:0], k)
			fn(string(buf), c)
		})
	case ix.dense != nil:
		buf := make([]uint8, 0, len(ix.cards))
		ix.dense.Range(func(k pattern.PackedKey, c int64) {
			buf = ix.codec.AppendUnpack(buf[:0], k)
			fn(string(buf), c)
		})
	default:
		for k, c := range ix.combos {
			fn(k, c)
		}
	}
}

// Prober performs allocation-free repeated coverage probes against an
// Index. A Prober is not safe for concurrent use; create one per
// goroutine.
type Prober struct {
	ix     *Index
	buf    *bitvec.Vector
	det    []int // scratch: deterministic attribute positions
	probes int64 // number of coverage computations performed
}

// NewProber returns a fresh Prober for the index.
func (ix *Index) NewProber() *Prober {
	return &Prober{ix: ix, buf: bitvec.New(ix.nDist), det: make([]int, 0, len(ix.cards))}
}

// Probes returns how many coverage computations this Prober has
// performed — the cost metric the paper's experiments track alongside
// wall-clock time.
func (pr *Prober) Probes() int64 { return pr.probes }

// Coverage returns cov(P) for the prober's index. The deterministic
// attributes are intersected sparsest-first so the running match set
// collapses as early as possible, the AND chain touches only the
// shrinking nonzero word window, and the probe exits as soon as the
// window empties.
func (pr *Prober) Coverage(p pattern.Pattern) int64 {
	ix := pr.ix
	if len(p) != len(ix.cards) {
		panic(fmt.Sprintf("index: pattern dimension %d does not match schema dimension %d", len(p), len(ix.cards)))
	}
	pr.probes++
	pr.det = pr.det[:0]
	for i, v := range p {
		if v != pattern.Wildcard {
			pr.det = append(pr.det, i)
		}
	}
	switch len(pr.det) {
	case 0:
		return ix.total // root pattern matches everything
	case len(p):
		return ix.fullCount(p)
	}
	// Sparsest vector first (insertion sort; the list is tiny).
	for a := 1; a < len(pr.det); a++ {
		i := pr.det[a]
		di := ix.density[i][p[i]]
		b := a - 1
		for b >= 0 && ix.density[pr.det[b]][p[pr.det[b]]] > di {
			pr.det[b+1] = pr.det[b]
			b--
		}
		pr.det[b+1] = i
	}
	first := pr.det[0]
	pr.buf.CopyFrom(ix.vecs[first][p[first]])
	lo, hi := pr.buf.Bounds()
	for _, i := range pr.det[1:] {
		if lo >= hi {
			return 0
		}
		lo, hi = pr.buf.AndWindow(ix.vecs[i][p[i]], lo, hi)
	}
	if lo >= hi {
		return 0
	}
	return pr.buf.DotCountsRange(ix.counts, lo, hi)
}

// CoverageBatch writes cov(ps[i]) into out[i] for every pattern in
// ps. On a single partition a batch is simply the per-pattern loop
// (each probe already runs against the one cache-resident index); the
// method exists so the bare *Index satisfies BatchCoverageProber and
// search code can batch unconditionally.
func (pr *Prober) CoverageBatch(ps []pattern.Pattern, out []int64) {
	for i, p := range ps {
		out[i] = pr.Coverage(p)
	}
}

// Pool is a concurrency-safe front end to repeated coverage probes: it
// keeps a free list of Probers so concurrent readers neither share a
// probe buffer nor allocate one per call. Deliberately no shared
// counters — the concurrent hot path must not contend on a cache
// line. The zero Pool is not usable; obtain one from Index.NewPool.
type Pool struct {
	probers sync.Pool
}

// NewPool returns a Pool of Probers for the index.
func (ix *Index) NewPool() *Pool {
	pl := &Pool{}
	pl.probers.New = func() any { return ix.NewProber() }
	return pl
}

// Coverage returns cov(P). It is safe for concurrent use.
func (pl *Pool) Coverage(p pattern.Pattern) int64 {
	pr := pl.probers.Get().(*Prober)
	c := pr.Coverage(p)
	pl.probers.Put(pr)
	return c
}

// MatchVector writes into dst the bit vector of distinct combinations
// matching P (one bit per distinct combo). dst must have length
// NumDistinct. Used by callers that need the matching set itself
// rather than its cardinality.
func (ix *Index) MatchVector(p pattern.Pattern, dst *bitvec.Vector) {
	if len(p) != len(ix.cards) {
		panic(fmt.Sprintf("index: pattern dimension %d does not match schema dimension %d", len(p), len(ix.cards)))
	}
	dst.SetAll()
	for i, v := range p {
		if v != pattern.Wildcard {
			dst.And(ix.vecs[i][v])
		}
	}
}
