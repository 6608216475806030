package index

import (
	"sync"
)

// Part is the partition of one pattern in a refinement descent: the
// distinct combinations the pattern matches, on every shard of the
// Refiner that wrote it. For a Refiner over S shards, part[:S] holds
// the per-shard id counts and the combo ids follow shard by shard,
// each run ascending.
type Part []int32

// Refinable is the optional partition-refinement extension of Oracle.
// Oracles whose combinations live in one or more *Index shards
// implement it, and full top-down searches then count every Rule-1
// child of a covered pattern from that pattern's partition instead of
// probing each child with a fresh AND chain.
type Refinable interface {
	Oracle
	// NewRefiner returns a fresh Refiner over the oracle's shards.
	NewRefiner() *Refiner
}

// NewRefiner satisfies Refinable: a single-shard refiner.
func (ix *Index) NewRefiner() *Refiner { return NewRefiner([]*Index{ix}) }

var _ Refinable = (*Index)(nil)

// Refiner derives child coverage by BUC-style partition refinement
// (Beyer & Ramakrishnan, SIGMOD 1999). A covered pattern carries the
// ids of the distinct combinations it matches; one pass over them
// histograms the attributes to the right of the pattern's last
// deterministic one, which yields the coverage of each of its Rule-1
// children, and a counting-sort Split hands the children that will be
// expanded their own, smaller partitions.
//
// Split writes into a per-level arena that is double-buffered: after
// NextLevel the partitions written during the level become readable
// and the buffer of the level before is reused. The arenas come from a
// process-wide pool, so repeated searches do not reallocate them;
// Release returns them.
//
// A Refiner is not safe for concurrent use. The partitions it wrote
// may be read concurrently by any Refiner over the same shards until
// its second NextLevel call after writing them.
type Refiner struct {
	shards []*Index
	d      int
	off    []int // attribute → offset of its values in a full histogram
	arena  *arenas
	w      int   // index of the write buffer in arena
	block  int   // arena block size: the root partition's, at most maxBlock
	tally  []int // split scratch: [shard][value] run lengths, then cursors
	attrs  []int // histogram scratch: the attributes needed
	slot   []int // histogram scratch: their first slots
}

// maxBlock caps an arena block at 256 KiB of combo ids.
const maxBlock = 1 << 16

// arenas is a Refiner's pooled storage: the double-buffered level
// arena.
type arenas [2]arena

var arenaPool = sync.Pool{New: func() any { return new(arenas) }}

// arena hands out partitions from a list of blocks that is kept and
// reused, so filling a level never copies what it already wrote and a
// partition never moves.
type arena struct {
	blocks [][]int32
	cur    int // the block being filled
}

func (a *arena) reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.cur = 0
}

// alloc returns n fresh slots, opening a block of at least size slots
// when the current one is full.
func (a *arena) alloc(n, size int) []int32 {
	for ; a.cur < len(a.blocks); a.cur++ {
		b := a.blocks[a.cur]
		if l := len(b); cap(b)-l >= n {
			a.blocks[a.cur] = b[:l+n]
			return b[l : l+n : l+n]
		}
		if len(b) == 0 {
			break // an empty block too small for n: replace it
		}
	}
	b := make([]int32, n, max(n, size))
	if a.cur < len(a.blocks) {
		a.blocks[a.cur] = b
	} else {
		a.blocks = append(a.blocks, b)
	}
	return b[:n:n]
}

// NewRefiner returns a Refiner over shards, which must share one
// schema and hold disjoint combination sets.
func NewRefiner(shards []*Index) *Refiner {
	cards := shards[0].cards
	r := &Refiner{
		shards: shards,
		d:      len(cards),
		off:    make([]int, len(cards)+1),
		arena:  arenaPool.Get().(*arenas),
	}
	maxCard := 0
	for a, c := range cards {
		r.off[a+1] = r.off[a] + c
		maxCard = max(maxCard, c)
	}
	r.tally = make([]int, len(shards)*maxCard)
	r.attrs = make([]int, 0, len(cards))
	r.slot = make([]int, 0, len(cards))
	r.block = len(shards)
	for _, ix := range shards {
		r.block += ix.nDist
	}
	r.block = min(r.block, maxBlock)
	r.arena[0].reset()
	r.arena[1].reset()
	return r
}

// HistogramLen is the length of the histogram of the children that
// fix an attribute ≥ from: one slot per value of those attributes.
func (r *Refiner) HistogramLen(from int) int { return r.off[r.d] - r.off[from] }

// Slot returns the slot of the child fixing attribute a to v in a
// histogram over the attributes ≥ from.
func (r *Refiner) Slot(from, a, v int) int { return r.off[a] - r.off[from] + v }

// Release returns the Refiner's arenas to the pool. Neither the
// Refiner nor any partition it wrote may be used afterwards.
func (r *Refiner) Release() {
	arenaPool.Put(r.arena)
	r.arena = nil
}

// NextLevel ends a level of the descent: the partitions written since
// the previous call become the ones to read, and the buffer holding
// the level before them is recycled for writing.
func (r *Refiner) NextLevel() {
	r.w ^= 1
	r.arena[r.w].reset()
}

// Root writes the partition of the all-wildcard pattern — every
// combination of every shard — into the level arena.
func (r *Refiner) Root() Part {
	n := len(r.shards)
	for _, ix := range r.shards {
		n += ix.nDist
	}
	part := r.arena[r.w].alloc(n, r.block)
	ids := part[len(r.shards):]
	for s, ix := range r.shards {
		part[s] = int32(ix.nDist)
		for k := range ix.nDist {
			ids[k] = int32(k)
		}
		ids = ids[ix.nDist:]
	}
	return part
}

// Histogram sets hist[Slot(from, a, v)], for every attribute a ≥ from
// with need[a] and every value v of it, to the coverage of p's pattern
// with attribute a fixed to v — the counts of its Rule-1 children
// when from is one past its last deterministic attribute. Per-shard
// counts are summed. hist must have length HistogramLen(from); the
// slots of attributes not needed are left undefined.
func (r *Refiner) Histogram(p Part, from int, need []bool, hist []int64) {
	d := r.d
	attrs, slot := r.attrs[:0], r.slot[:0]
	for a := from; a < d; a++ {
		if need[a] {
			lo := r.off[a] - r.off[from]
			attrs, slot = append(attrs, a), append(slot, lo)
			clear(hist[lo : lo+r.off[a+1]-r.off[a]])
		}
	}
	r.attrs, r.slot = attrs, slot
	ids := p[len(r.shards):]
	for s, ix := range r.shards {
		run := ids[:p[s]]
		ids = ids[p[s]:]
		rows, counts := ix.rows, ix.counts
		if len(attrs) == 1 {
			a, h := attrs[0], hist[slot[0]:]
			for _, k := range run {
				h[rows[int(k)*d+a]] += counts[k]
			}
			continue
		}
		for _, k := range run {
			row := rows[int(k)*d : int(k+1)*d]
			c := counts[k]
			for j, a := range attrs {
				hist[slot[j]+int(row[a])] += c
			}
		}
	}
}

// Split partitions p by attribute a: for every value v with keep[v]
// (len(keep) is a's cardinality) it writes the partition of p's
// pattern with a fixed to v into the level arena and stores it in
// out[v]. Entries of out for other values are left untouched. It
// returns how many int32 slots — combo ids and partition headers — it
// took from the arena.
func (r *Refiner) Split(p Part, a int, keep []bool, out []Part) int {
	S := len(r.shards)
	card := len(keep)
	d := r.d
	tally := r.tally[:S*card]
	clear(tally)
	ids := p[S:]
	for s, ix := range r.shards {
		run := ids[:p[s]]
		ids = ids[p[s]:]
		t := tally[s*card : (s+1)*card]
		rows := ix.rows
		for _, k := range run {
			t[rows[int(k)*d+a]]++
		}
	}
	// Lay the kept partitions out back to back, each a header of S
	// per-shard lengths followed by its ids; turn the tallies into
	// write cursors.
	need := 0
	for v, ok := range keep {
		if !ok {
			continue
		}
		need += S
		for s := 0; s < S; s++ {
			need += tally[s*card+v]
		}
	}
	buf := r.arena[r.w].alloc(need, r.block)
	pos := 0
	for v, ok := range keep {
		if !ok {
			continue
		}
		start := pos
		pos += S
		for s := 0; s < S; s++ {
			n := tally[s*card+v]
			buf[start+s] = int32(n)
			tally[s*card+v] = pos
			pos += n
		}
		out[v] = Part(buf[start:pos:pos])
	}
	ids = p[S:]
	for s, ix := range r.shards {
		run := ids[:p[s]]
		ids = ids[p[s]:]
		t := tally[s*card : (s+1)*card]
		rows := ix.rows
		for _, k := range run {
			v := rows[int(k)*d+a]
			if keep[v] {
				buf[t[v]] = k
				t[v]++
			}
		}
	}
	return need
}
