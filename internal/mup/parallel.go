package mup

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// ParallelOptions extends Options with a worker count for the
// multi-core variants (the parallel breaker and the repair passes).
type ParallelOptions struct {
	Options
	// Workers is the number of goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (p ParallelOptions) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runChunks splits items into one contiguous chunk per worker and runs
// fn(worker, chunk, lo) concurrently — the level-chunking idiom of the
// repair waves. With a single worker (or a single item) fn runs
// inline, keeping sequential callers goroutine-free.
func runChunks[T any](items []T, workers int, fn func(w int, part []T, lo int)) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		if len(items) > 0 {
			fn(0, items, 0)
		}
		return
	}
	chunk := (len(items) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(items) {
			break
		}
		hi := min(lo+chunk, len(items))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, items[lo:hi], lo)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ParallelPatternBreaker is a multi-core PATTERN-BREAKER. The
// traversal is level-synchronous, which makes it embarrassingly
// parallel within a level: each covered parent's Rule-1 children are
// parent-checked and counted independently given the previous level's
// covered set, so workers claim the parents, each with private scratch
// (the coverage oracle itself is immutable). The output — MUPs, Cov
// and Stats — is identical to PatternBreaker.
//
// Child counts come from partition refinement when the oracle is
// index.Refinable (a bare *Index or the engine's sharded oracle): each
// covered parent carries the distinct combinations it matches, one
// histogram pass over them yields the coverage of its children, and
// only the children that will be expanded in turn get their own
// partitions, within a memory budget (arenaIDsPerCombo). Children of
// other oracles, or of parents left without a partition, are answered
// by one batched coverage probe per worker per level. Either way
// CoverageProbes counts one probe per live candidate, the paper's cost
// metric.
func ParallelPatternBreaker(ix index.Oracle, popts ParallelOptions) (*Result, error) {
	// The covered-set keys are only hashed, so the byte-aligned raw
	// layout (two word loads per key) beats the bit-compact one
	// wherever it fits.
	codec := pattern.NewRawCodec(len(ix.Cards()))
	if !codec.Packable() {
		codec = pattern.NewCodec(ix.Cards())
	}
	if codec.Packable() {
		return parallelBreakerKeyed(ix, popts, codec.PackedKey)
	}
	return parallelBreakerKeyed(ix, popts, func(p pattern.Pattern) string { return string(p) })
}

// node is one covered pattern whose Rule-1 children the next level
// visits, with its partition when the search refines; the children of
// a node without one are probed.
type node struct {
	p    pattern.Pattern
	part index.Part
}

// child names one live candidate by its parent (an index into the
// level's parents) and the attribute and value Rule 1 fixed.
type child struct {
	parent int32
	attr   uint8
	val    uint8
}

// arenaIDsPerCombo bounds the partitions one level of a refining
// search may hold, in int32 slots per distinct combination of the
// oracle (the root partition's size): 64 bytes per combination, less
// than the index itself spends. Children a level cannot fit keep no
// partition, and their subtrees are counted with the Appendix A prober
// instead. The bound trades little: the levels that outgrow it are
// the deep, dense ones of lattices over few combinations, whose short
// bit vectors make probes cheap.
const arenaIDsPerCombo = 16

// breakerWorker is one worker's state for a search: its prober and
// refiner, its pooled scratch, and the level's output.
type breakerWorker[K comparable] struct {
	ix     index.Oracle
	cards  []int
	tau    int64
	key    func(pattern.Pattern) K
	budget int // this worker's share of a level's partitions, in int32 slots
	used   int // slots its partitions of the level being written take

	pr  index.CoverageProber // created on the first probe
	ref *index.Refiner       // nil unless the oracle is index.Refinable
	*breakerScratch
	covered []K
	nodes   int64
	probes  int64
}

// breakerScratch is the part of a worker's state that outlives a
// level: buffers reused across levels and, through scratchPool,
// across searches, so their growth is paid once.
type breakerScratch struct {
	hist  []int64
	need  []bool // attributes with a live child of the current parent
	keep  []bool
	parts []index.Part
	c     pattern.Pattern // the child being parent-checked
	buf   []uint8         // live candidates back to back
	live  []child
	covs  []int64
	probe []int // live candidates whose count needs a probe
	pats  []pattern.Pattern

	mups    []pattern.Pattern
	mupCovs []int64
	next    []node
	nextOf  []child // next[i] is the child nextOf[i]
}

var scratchPool = sync.Pool{New: func() any { return new(breakerScratch) }}

// fit sizes the per-schema buffers for d attributes of at most
// maxCard values and a histogram of histLen slots.
func (sc *breakerScratch) fit(d, maxCard, histLen int) {
	sc.hist = slices.Grow(sc.hist[:0], histLen)[:histLen]
	sc.need = slices.Grow(sc.need[:0], d)[:d]
	sc.c = slices.Grow(sc.c[:0], d)[:d]
	sc.keep = slices.Grow(sc.keep[:0], maxCard)[:maxCard]
	sc.parts = slices.Grow(sc.parts[:0], maxCard)[:maxCard]
	clear(sc.need)
	clear(sc.keep)
}

func parallelBreakerKeyed[K comparable](ix index.Oracle, popts ParallelOptions, key func(pattern.Pattern) K) (*Result, error) {
	opts := popts.Options
	cards := ix.Cards()
	d := len(cards)
	bound := opts.levelBound(d)
	rix, refining := ix.(index.Refinable)

	ws := make([]*breakerWorker[K], popts.workers())
	maxCard := 0
	for _, c := range cards {
		maxCard = max(maxCard, c)
	}
	for w := range ws {
		bw := &breakerWorker[K]{
			ix: ix, cards: cards, tau: opts.Threshold, key: key,
			breakerScratch: scratchPool.Get().(*breakerScratch),
		}
		defer scratchPool.Put(bw.breakerScratch)
		histLen := 0
		if refining {
			bw.ref = rix.NewRefiner()
			defer bw.ref.Release()
			histLen = bw.ref.HistogramLen(0)
		}
		bw.fit(d, maxCard, histLen)
		ws[w] = bw
	}

	// Level 0: the root, covered unless the whole dataset is below τ.
	res := &Result{Stats: Stats{Algorithm: "parallel-pattern-breaker", NodesVisited: 1, CoverageProbes: 1}, Cov: []int64{}}
	root := pattern.All(d)
	rootCov := []int64{ix.Total()}
	if !refining {
		index.CoverageAll(ws[0].prober(), []pattern.Pattern{root}, rootCov)
	}
	if rootCov[0] < opts.Threshold {
		res.MUPs, res.Cov = []pattern.Pattern{root}, rootCov
		return res, nil
	}
	parents := []node{{p: root}}
	if refining {
		parents[0].part = ws[0].ref.Root()
		for _, bw := range ws {
			bw.budget = arenaIDsPerCombo * len(parents[0].part) / len(ws)
			bw.ref.NextLevel()
		}
	}
	// covered holds the covered patterns of the level above, the keys
	// every candidate's parent check looks up; the two maps alternate
	// so each level reuses the storage of the one before last.
	covered, spare := map[K]struct{}{key(root): {}}, map[K]struct{}{}

	for level := 1; level <= bound && len(parents) > 0; level++ {
		// Workers claim parents a few at a time from a shared cursor:
		// the work per parent varies by orders of magnitude, so static
		// chunks would leave one worker with most of a level.
		var cursor atomic.Int64
		grab := max(1, len(parents)/(64*len(ws)))
		visit := func(w int) { ws[w].visit(parents, &cursor, grab, covered, level, bound) }
		if n := min(len(ws), len(parents)); n == 1 {
			visit(0)
		} else {
			var wg sync.WaitGroup
			for w := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					visit(w)
				}()
			}
			wg.Wait()
		}
		nMUPs, nNext := 0, 0
		for _, bw := range ws {
			nMUPs += len(bw.mups)
			nNext += len(bw.next)
		}
		mergeLevel(res, ws, nMUPs)
		clear(spare)
		coveredNow := spare
		next := make([]node, 0, nNext)
		for _, bw := range ws {
			for _, k := range bw.covered {
				coveredNow[k] = struct{}{}
			}
			next = append(next, bw.next...)
			res.Stats.NodesVisited += bw.nodes
			res.Stats.CoverageProbes += bw.probes
			bw.mups, bw.mupCovs, bw.covered, bw.next, bw.nextOf = bw.mups[:0], bw.mupCovs[:0], bw.covered[:0], bw.next[:0], bw.nextOf[:0]
			bw.nodes, bw.probes, bw.used = 0, 0, 0
			if refining {
				bw.ref.NextLevel()
			}
		}
		spare = covered
		covered = coveredNow
		parents = next
	}
	return res, nil
}

// mergeLevel appends one level's MUPs to res in canonical order: every
// MUP of a level has the same level, so the workers' byte-sorted runs
// only need merging, and levels arrive in order.
func mergeLevel[K comparable](res *Result, ws []*breakerWorker[K], n int) {
	res.MUPs = slices.Grow(res.MUPs, n)
	res.Cov = slices.Grow(res.Cov, n)
	pos := make([]int, len(ws))
	for range n {
		best := -1
		for w, bw := range ws {
			if pos[w] < len(bw.mups) && (best < 0 || bytes.Compare(bw.mups[pos[w]], ws[best].mups[pos[best]]) < 0) {
				best = w
			}
		}
		res.MUPs = append(res.MUPs, ws[best].mups[pos[best]])
		res.Cov = append(res.Cov, ws[best].mupCovs[pos[best]])
		pos[best]++
	}
}

// levelSorter orders one worker's MUPs of a level by their raw bytes —
// the canonical order among patterns of equal level — keeping the
// coverage values aligned.
type levelSorter struct {
	mups []pattern.Pattern
	covs []int64
}

func (s levelSorter) Len() int           { return len(s.mups) }
func (s levelSorter) Less(i, j int) bool { return bytes.Compare(s.mups[i], s.mups[j]) < 0 }
func (s levelSorter) Swap(i, j int) {
	s.mups[i], s.mups[j] = s.mups[j], s.mups[i]
	s.covs[i], s.covs[j] = s.covs[j], s.covs[i]
}

// prober returns the worker's coverage prober, creating it on first
// use.
func (bw *breakerWorker[K]) prober() index.CoverageProber {
	if bw.pr == nil {
		bw.pr = bw.ix.NewCoverageProber()
	}
	return bw.pr
}

// visit runs one level of the descent over the covered parents the
// worker claims from cursor, grab at a time: every Rule-1 child is
// parent-checked, the live ones are counted and classified, and the
// covered ones the next level expands are queued (with their
// partitions, when refining).
func (bw *breakerWorker[K]) visit(parents []node, cursor *atomic.Int64, grab int, covered map[K]struct{}, level, bound int) {
	cards := bw.cards
	d := len(cards)
	bw.live, bw.buf, bw.covs, bw.probe = bw.live[:0], bw.buf[:0], bw.covs[:0], bw.probe[:0]
	// Pass 1: parent checks on each child in place. The live ones are
	// copied out, then counted from the parent's partition — histograms
	// of just the attributes with a live child — or queued for a probe.
	for {
		lo := int(cursor.Add(int64(grab))) - grab
		if lo >= len(parents) {
			break
		}
		for pi := lo; pi < min(lo+grab, len(parents)); pi++ {
			bw.countChildren(parents[pi], int32(pi), covered)
		}
	}
	bw.probes += int64(len(bw.live))
	livePattern := func(i int) pattern.Pattern { return bw.buf[i*d : (i+1)*d : (i+1)*d] }
	if len(bw.probe) > 0 {
		// One merged probe for the worker's whole slice of the level —
		// a batching prober (the sharded fan-out) walks its partitions
		// shard-major over the candidates.
		bw.pats = bw.pats[:0]
		for _, i := range bw.probe {
			bw.pats = append(bw.pats, livePattern(i))
		}
		covs := bw.covs // every live candidate probed: answer in place
		if len(bw.probe) < len(bw.live) {
			covs = make([]int64, len(bw.pats))
		}
		index.CoverageAll(bw.prober(), bw.pats, covs)
		for j, i := range bw.probe {
			bw.covs[i] = covs[j]
		}
	}
	// Pass 2: classify. MUPs and queued parents get their own storage,
	// one allocation each per level.
	expand := level < bound
	var nMUPs, nNext int
	for i, lc := range bw.live {
		switch {
		case bw.covs[i] < bw.tau:
			nMUPs++
		case expand && int(lc.attr) < d-1:
			nNext++
		}
	}
	mupBuf := make([]uint8, nMUPs*d)
	nextBuf := make([]uint8, nNext*d)
	bw.mups = slices.Grow(bw.mups, nMUPs)
	bw.mupCovs = slices.Grow(bw.mupCovs, nMUPs)
	if expand {
		bw.covered = slices.Grow(bw.covered, len(bw.live)-nMUPs)
	}
	bw.next = slices.Grow(bw.next, nNext)
	bw.nextOf = slices.Grow(bw.nextOf, nNext)
	for i, lc := range bw.live {
		p := livePattern(i)
		if c := bw.covs[i]; c < bw.tau {
			q := pattern.Pattern(mupBuf[:d:d])
			mupBuf = mupBuf[d:]
			copy(q, p)
			bw.mups = append(bw.mups, q)
			bw.mupCovs = append(bw.mupCovs, c)
			continue
		}
		if !expand {
			continue
		}
		bw.covered = append(bw.covered, bw.key(p))
		if int(lc.attr) < d-1 {
			q := pattern.Pattern(nextBuf[:d:d])
			nextBuf = nextBuf[d:]
			copy(q, p)
			bw.next = append(bw.next, node{p: q})
			bw.nextOf = append(bw.nextOf, lc)
		}
	}
	sort.Sort(levelSorter{bw.mups, bw.mupCovs})
	if bw.ref != nil {
		bw.refineNext(parents)
	}
}

// countChildren parent-checks the Rule-1 children of par, the parent
// at index pi of the level, and appends the live ones to the worker's
// list: with their counts when par's partition yields them, queued for
// a probe otherwise.
func (bw *breakerWorker[K]) countChildren(par node, pi int32, covered map[K]struct{}) {
	cards := bw.cards
	d := len(cards)
	from := par.p.Rule1Start()
	first := len(bw.live)
	c := bw.c
	copy(c, par.p)
	for a := from; a < d; a++ {
		for v := 0; v < cards[a]; v++ {
			bw.nodes++
			c[a] = uint8(v)
			if !otherParentsCovered(c, a, covered, bw.key) {
				continue
			}
			bw.live = append(bw.live, child{parent: pi, attr: uint8(a), val: uint8(v)})
			bw.buf = append(bw.buf, c...)
		}
		c[a] = pattern.Wildcard
	}
	if par.part == nil {
		for i := first; i < len(bw.live); i++ {
			bw.probe = append(bw.probe, i)
			bw.covs = append(bw.covs, 0)
		}
		return
	}
	if first == len(bw.live) {
		return
	}
	for _, lc := range bw.live[first:] {
		bw.need[lc.attr] = true
	}
	counts := bw.hist[:bw.ref.HistogramLen(from)]
	bw.ref.Histogram(par.part, from, bw.need, counts)
	for _, lc := range bw.live[first:] {
		bw.covs = append(bw.covs, counts[bw.ref.Slot(from, int(lc.attr), int(lc.val))])
		bw.need[lc.attr] = false
	}
}

// refineNext gives the queued children their partitions for the next
// level. The queued children of one parent on one attribute come from
// a single counting-sort split of the parent's partition, which keeps
// only the values queued. Splits stop once the worker's partitions of
// the level would pass its share of the arena budget — workers claim
// parents a few at a time, so the shares fill evenly — and children of
// a parent without a partition get none either: the next level probes
// their children.
func (bw *breakerWorker[K]) refineNext(parents []node) {
	for i := 0; i < len(bw.nextOf); {
		g := bw.nextOf[i]
		j := i
		for j < len(bw.nextOf) && bw.nextOf[j].parent == g.parent && bw.nextOf[j].attr == g.attr {
			j++
		}
		from := parents[g.parent].part
		if from == nil || bw.used+len(from) > bw.budget {
			i = j
			continue
		}
		for _, lc := range bw.nextOf[i:j] {
			bw.keep[lc.val] = true
		}
		bw.used += bw.ref.Split(from, int(g.attr), bw.keep[:bw.cards[g.attr]], bw.parts)
		for k, lc := range bw.nextOf[i:j] {
			bw.next[i+k].part = bw.parts[lc.val]
			bw.keep[lc.val] = false
		}
		i = j
	}
}

// otherParentsCovered reports whether every parent of c other than the
// one with attribute a wildcarded — the covered pattern c was
// generated from — is in covered, flipping one deterministic element
// at a time in place.
func otherParentsCovered[K comparable](c pattern.Pattern, a int, covered map[K]struct{}, key func(pattern.Pattern) K) bool {
	for i, v := range c {
		if v == pattern.Wildcard || i == a {
			continue
		}
		c[i] = pattern.Wildcard
		_, ok := covered[key(c)]
		c[i] = v
		if !ok {
			return false
		}
	}
	return true
}
