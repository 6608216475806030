// Package mup implements the MUP-identification algorithms of Asudeh
// et al. (ICDE 2019): the naïve enumerator (§III-A), PATTERN-BREAKER
// (§III-C, top-down), PATTERN-COMBINER (§III-D, bottom-up), DEEPDIVER
// (§III-E, dive-and-climb with dominance pruning), and the APRIORI
// adaptation used as a baseline in §V-C.
//
// All algorithms take a coverage oracle (the index.Oracle interface;
// a prebuilt *index.Index or the engine's sharded sum-of-shards
// oracle) and produce the identical set of maximal uncovered patterns;
// they differ only in traversal order and therefore cost, exactly as
// the paper's evaluation studies.
package mup

import (
	"fmt"
	"sort"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// Options configures a MUP search.
type Options struct {
	// Threshold is the coverage threshold τ: a pattern P is covered
	// iff cov(P) ≥ Threshold. Thresholds ≤ 0 make every pattern
	// covered, so the MUP set is empty.
	Threshold int64

	// MaxLevel, when positive, bounds the search to MUPs of level ≤
	// MaxLevel (the level-bounded discovery of Fig 16: "the MUPs that
	// are the combinations of one or two attributes"). Zero means
	// unbounded. Deeper MUPs are not reported.
	MaxLevel int
}

// levelBound returns the effective deepest level to explore.
func (o Options) levelBound(d int) int {
	if o.MaxLevel <= 0 || o.MaxLevel > d {
		return d
	}
	return o.MaxLevel
}

// Canonical returns o with every spelling of "unbounded" over a
// d-attribute schema — a MaxLevel ≤ 0 or ≥ d — folded to 0, so caches
// keyed on the options hold one entry per distinct search.
func (o Options) Canonical(d int) Options {
	if o.levelBound(d) == d {
		o.MaxLevel = 0
	}
	return o
}

// Stats records the work an algorithm performed.
type Stats struct {
	// Algorithm is the name of the algorithm that produced the result.
	Algorithm string
	// CoverageProbes is the number of coverage computations issued
	// against the oracle.
	CoverageProbes int64
	// NodesVisited is the number of pattern-graph nodes the traversal
	// popped or materialized.
	NodesVisited int64
}

// Result is the outcome of a MUP search: the maximal uncovered
// patterns, sorted by (level, pattern key) for determinism, plus cost
// statistics.
type Result struct {
	MUPs []pattern.Pattern
	// Cov, when non-nil, is parallel to MUPs: Cov[i] is cov(MUPs[i])
	// at the state the result reflects. Repairs use these cached
	// values to delta-update the coverage of patterns instead of
	// re-probing the oracle, so keeping them alongside a cached search
	// makes every later repair cheaper.
	Cov   []int64
	Stats Stats
}

// patternLess is pattern.Compare's canonical (level, key) order,
// giving deterministic output across algorithms; comparing raw bytes
// keeps sorting a ten-thousand-MUP result allocation-free.
func patternLess(a, b pattern.Pattern) bool {
	return pattern.Compare(a, b) < 0
}

// resultSorter sorts MUPs and the parallel Cov slice in tandem.
type resultSorter struct{ r *Result }

func (s resultSorter) Len() int           { return len(s.r.MUPs) }
func (s resultSorter) Less(i, j int) bool { return patternLess(s.r.MUPs[i], s.r.MUPs[j]) }
func (s resultSorter) Swap(i, j int) {
	s.r.MUPs[i], s.r.MUPs[j] = s.r.MUPs[j], s.r.MUPs[i]
	if s.r.Cov != nil {
		s.r.Cov[i], s.r.Cov[j] = s.r.Cov[j], s.r.Cov[i]
	}
}

// sortResult orders the result canonically, keeping Cov aligned with
// MUPs. A Cov of the wrong length (a bug upstream) is dropped rather
// than silently misattributed.
func sortResult(r *Result) {
	if r.Cov != nil && len(r.Cov) != len(r.MUPs) {
		r.Cov = nil
	}
	sort.Sort(resultSorter{r})
}

// LevelHistogram returns the number of MUPs per level, indexed by
// level 0..d — the series of the paper's Fig 6.
func (r *Result) LevelHistogram(d int) []int {
	h := make([]int, d+1)
	for _, p := range r.MUPs {
		h[p.Level()]++
	}
	return h
}

// Verify checks that every pattern in mups is a genuine MUP of the
// oracle's dataset under threshold τ (uncovered, with every parent
// covered) and that mups contains no duplicates. It does not check
// completeness; use the naïve algorithm as the completeness oracle in
// tests.
func Verify(ix index.Oracle, tau int64, mups []pattern.Pattern) error {
	pr := ix.NewCoverageProber()
	seen := make(map[string]bool, len(mups))
	for _, p := range mups {
		if err := p.Validate(ix.Cards()); err != nil {
			return fmt.Errorf("mup: invalid pattern %v: %w", p, err)
		}
		if seen[p.Key()] {
			return fmt.Errorf("mup: duplicate MUP %v", p)
		}
		seen[p.Key()] = true
		if c := pr.Coverage(p); c >= tau {
			return fmt.Errorf("mup: %v has coverage %d ≥ τ=%d, not uncovered", p, c, tau)
		}
		for _, par := range p.Parents() {
			if c := pr.Coverage(par); c < tau {
				return fmt.Errorf("mup: %v is not maximal: parent %v has coverage %d < τ=%d", p, par, c, tau)
			}
		}
	}
	return nil
}

// VerifyResult additionally checks a result's cached coverage values
// against fresh probes — the invariant the repair delta-updates must
// preserve.
func VerifyResult(ix index.Oracle, tau int64, res *Result) error {
	if err := Verify(ix, tau, res.MUPs); err != nil {
		return err
	}
	if res.Cov == nil {
		return nil
	}
	if len(res.Cov) != len(res.MUPs) {
		return fmt.Errorf("mup: %d cached coverage values for %d MUPs", len(res.Cov), len(res.MUPs))
	}
	pr := ix.NewCoverageProber()
	for i, p := range res.MUPs {
		if c := pr.Coverage(p); c != res.Cov[i] {
			return fmt.Errorf("mup: cached cov(%v) = %d, oracle says %d", p, res.Cov[i], c)
		}
	}
	return nil
}

// Naive implements §III-A: enumerate every pattern of the graph,
// probe its coverage, and keep the uncovered patterns all of whose
// parents are covered. Exponential in d; intended as the correctness
// oracle for tests and tiny datasets.
func Naive(ix index.Oracle, opts Options) (*Result, error) {
	cards := ix.Cards()
	if total := pattern.TotalPatterns(cards); total > 1<<22 {
		return nil, fmt.Errorf("mup: naive enumeration over %d patterns refused; use PatternBreaker/PatternCombiner/DeepDiver", total)
	}
	res := &Result{Stats: Stats{Algorithm: "naive"}, Cov: []int64{}}
	pr := ix.NewCoverageProber()
	bound := opts.levelBound(len(cards))
	cov := make(map[string]int64)
	pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
		res.Stats.NodesVisited++
		cov[p.Key()] = pr.Coverage(p)
		return true
	})
	pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
		if p.Level() > bound || cov[p.Key()] >= opts.Threshold {
			return true
		}
		for _, par := range p.Parents() {
			if cov[par.Key()] < opts.Threshold {
				return true
			}
		}
		res.MUPs = append(res.MUPs, p.Clone())
		res.Cov = append(res.Cov, cov[p.Key()])
		return true
	})
	res.Stats.CoverageProbes = pr.Probes()
	sortResult(res)
	return res, nil
}
