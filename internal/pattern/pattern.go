// Package pattern implements the pattern algebra of Asudeh et al.
// (ICDE 2019): patterns over low-cardinality categorical attributes,
// tuple matching, parent/child navigation in the pattern graph, the
// deterministic generation rules (Rule 1 and Rule 2) that turn the
// pattern graph into a tree/forest, pattern dominance, and value counts.
//
// A pattern is a vector of length d where each element is either a
// concrete attribute-value code or the Wildcard (the paper's "X",
// a non-deterministic element). Value codes are uint8 in [0, 254];
// attribute cardinalities therefore must not exceed 255 values.
package pattern

import (
	"bytes"
	"fmt"
	"strings"
)

// Wildcard is the code for a non-deterministic element (the paper's "X").
const Wildcard uint8 = 0xFF

// MaxCardinality is the largest supported attribute cardinality.
// Value codes must be strictly below it so that Wildcard stays reserved.
const MaxCardinality = 255

// Pattern is a vector of attribute-value codes; Wildcard marks a
// non-deterministic element. The zero-length Pattern is valid and
// matches the empty tuple only.
type Pattern []uint8

// All returns the most general pattern of dimension d (all wildcards),
// the single root of the pattern graph at level 0.
func All(d int) Pattern {
	p := make(Pattern, d)
	for i := range p {
		p[i] = Wildcard
	}
	return p
}

// FromValues returns a fully deterministic pattern (level d) equal to
// the given value-combination. The slice is copied.
func FromValues(values []uint8) Pattern {
	p := make(Pattern, len(values))
	copy(p, values)
	return p
}

// Clone returns a copy of p.
func (p Pattern) Clone() Pattern {
	q := make(Pattern, len(p))
	copy(q, p)
	return q
}

// Level returns the number of deterministic elements of p
// (the paper's ℓ(P)).
func (p Pattern) Level() int {
	n := 0
	for _, v := range p {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// IsFull reports whether every element of p is deterministic,
// i.e. p denotes a single value combination.
func (p Pattern) IsFull() bool {
	for _, v := range p {
		if v == Wildcard {
			return false
		}
	}
	return true
}

// Matches reports whether tuple t matches p: for every deterministic
// element of p, t agrees (the paper's M(t, P)). It panics if the
// lengths differ, which always indicates a schema mix-up by the caller.
func (p Pattern) Matches(t []uint8) bool {
	if len(t) != len(p) {
		panic(fmt.Sprintf("pattern: dimension mismatch: pattern has %d attributes, tuple has %d", len(p), len(t)))
	}
	for i, v := range p {
		if v != Wildcard && v != t[i] {
			return false
		}
	}
	return true
}

// Dominates reports whether p dominates q: every value combination
// matching q also matches p. Equivalently, for every deterministic
// element of p, q has the same deterministic value. A pattern dominates
// itself.
func (p Pattern) Dominates(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i, v := range p {
		if v != Wildcard && v != q[i] {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are identical patterns.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Key returns a compact map key for p. Two patterns share a key iff
// they are Equal.
func (p Pattern) Key() string {
	return string(p)
}

// Compare orders patterns canonically: by level, then by raw bytes
// (which matches the Key() order without allocating). Every sorted
// pattern list in the module — MUP results, hitting-set targets, the
// plan cache's MUP-set diffs — uses this one order, so merge passes
// over two sorted lists may rely on it. Returns -1, 0 or 1.
func Compare(a, b Pattern) int {
	la, lb := a.Level(), b.Level()
	if la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	return bytes.Compare(a, b)
}

// FromKey reconstructs the pattern encoded by Key.
func FromKey(key string) Pattern {
	return Pattern(key)
}

// String renders p in the paper's compact notation: one character per
// element, 'X' for wildcards, the decimal digit for values 0-9, and a
// bracketed decimal (e.g. "[12]") for larger value codes.
func (p Pattern) String() string {
	var b strings.Builder
	b.Grow(len(p))
	for _, v := range p {
		switch {
		case v == Wildcard:
			b.WriteByte('X')
		case v < 10:
			b.WriteByte('0' + v)
		default:
			fmt.Fprintf(&b, "[%d]", v)
		}
	}
	return b.String()
}

// Parse parses the compact notation produced by String. 'X', 'x' and
// '*' denote wildcards; digits denote value codes 0-9; "[n]" denotes an
// arbitrary code. If cards is non-nil, values are validated against the
// attribute cardinalities and the dimension must equal len(cards).
func Parse(s string, cards []int) (Pattern, error) {
	var p Pattern
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case ch == 'X' || ch == 'x' || ch == '*':
			p = append(p, Wildcard)
		case ch >= '0' && ch <= '9':
			p = append(p, ch-'0')
		case ch == '[':
			j := strings.IndexByte(s[i:], ']')
			if j < 0 {
				return nil, fmt.Errorf("pattern: unterminated '[' at position %d in %q", i, s)
			}
			var v int
			if _, err := fmt.Sscanf(s[i:i+j+1], "[%d]", &v); err != nil {
				return nil, fmt.Errorf("pattern: bad bracketed value at position %d in %q: %v", i, s, err)
			}
			if v < 0 || v >= MaxCardinality {
				return nil, fmt.Errorf("pattern: value %d out of range [0, %d) in %q", v, MaxCardinality, s)
			}
			p = append(p, uint8(v))
			i += j
		default:
			return nil, fmt.Errorf("pattern: unexpected character %q at position %d in %q", ch, i, s)
		}
	}
	if cards != nil {
		if len(p) != len(cards) {
			return nil, fmt.Errorf("pattern: %q has %d elements, schema has %d attributes", s, len(p), len(cards))
		}
		if err := p.Validate(cards); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Validate checks that every deterministic element of p is a legal
// value code for the corresponding attribute cardinality.
func (p Pattern) Validate(cards []int) error {
	if len(p) != len(cards) {
		return fmt.Errorf("pattern: dimension %d does not match schema dimension %d", len(p), len(cards))
	}
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		if int(v) >= cards[i] {
			return fmt.Errorf("pattern: value %d for attribute %d exceeds cardinality %d", v, i, cards[i])
		}
	}
	return nil
}

// ValueCount returns the number of value combinations matching p:
// the product of the cardinalities of p's non-deterministic attributes
// (the paper's Definition 7). It panics on dimension mismatch.
func (p Pattern) ValueCount(cards []int) uint64 {
	if len(p) != len(cards) {
		panic(fmt.Sprintf("pattern: dimension %d does not match schema dimension %d", len(p), len(cards)))
	}
	n := uint64(1)
	for i, v := range p {
		if v == Wildcard {
			n *= uint64(cards[i])
		}
	}
	return n
}

// Parents returns all parents of p: one pattern per deterministic
// element, with that element replaced by Wildcard. The root (level 0)
// has no parents.
func (p Pattern) Parents() []Pattern {
	var out []Pattern
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		q := p.Clone()
		q[i] = Wildcard
		out = append(out, q)
	}
	return out
}

// Children returns all children of p: for each non-deterministic
// element, one pattern per value of the corresponding attribute.
func (p Pattern) Children(cards []int) []Pattern {
	var out []Pattern
	for i, v := range p {
		if v != Wildcard {
			continue
		}
		for val := 0; val < cards[i]; val++ {
			q := p.Clone()
			q[i] = uint8(val)
			out = append(out, q)
		}
	}
	return out
}

// rightmostDeterministic returns the index of the right-most
// deterministic element of p, or -1 if p is the all-wildcard root.
func (p Pattern) rightmostDeterministic() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != Wildcard {
			return i
		}
	}
	return -1
}

// Rule1Start returns the first attribute Rule 1 may fix in p: one
// past its right-most deterministic element, 0 for the root. Each of
// p's Rule-1 children fixes one attribute from there on.
func (p Pattern) Rule1Start() int { return p.rightmostDeterministic() + 1 }

// rightmostWildcard returns the index of the right-most
// non-deterministic element of p, or -1 if p is fully deterministic.
func (p Pattern) rightmostWildcard() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == Wildcard {
			return i
		}
	}
	return -1
}

// Rule1Children generates the children of p under the paper's Rule 1:
// only the non-deterministic elements strictly to the right of p's
// right-most deterministic element are instantiated. Every pattern
// other than the root is generated by exactly one (parent, Rule 1)
// application, turning the pattern graph into a tree rooted at All(d).
func (p Pattern) Rule1Children(cards []int) []Pattern {
	start := p.Rule1Start()
	var out []Pattern
	for i := start; i < len(p); i++ {
		if p[i] != Wildcard {
			continue
		}
		for val := 0; val < cards[i]; val++ {
			q := p.Clone()
			q[i] = uint8(val)
			out = append(out, q)
		}
	}
	return out
}

// AppendRule1Children appends p's Rule 1 children to dst and returns
// the extended slice. All children share one backing allocation,
// keeping per-node garbage low in the traversal hot loops.
func (p Pattern) AppendRule1Children(dst []Pattern, cards []int) []Pattern {
	start := p.Rule1Start()
	n := 0
	for i := start; i < len(p); i++ {
		if p[i] == Wildcard {
			n += cards[i]
		}
	}
	if n == 0 {
		return dst
	}
	buf := make([]uint8, n*len(p))
	k := 0
	for i := start; i < len(p); i++ {
		if p[i] != Wildcard {
			continue
		}
		for val := 0; val < cards[i]; val++ {
			q := buf[k*len(p) : (k+1)*len(p) : (k+1)*len(p)]
			copy(q, p)
			q[i] = uint8(val)
			dst = append(dst, q)
			k++
		}
	}
	return dst
}

// Rule1Parent returns the unique parent responsible for generating p
// under Rule 1 (the right-most deterministic element replaced by a
// wildcard), and false for the root, which has no generator.
func (p Pattern) Rule1Parent() (Pattern, bool) {
	i := p.rightmostDeterministic()
	if i < 0 {
		return nil, false
	}
	q := p.Clone()
	q[i] = Wildcard
	return q, true
}

// Rule2Parents generates the parents of p under the paper's Rule 2:
// deterministic elements with value 0 strictly to the right of p's
// right-most non-deterministic element are replaced by wildcards.
// (For a fully deterministic p, all value-0 elements qualify.) Every
// non-leaf pattern is generated by exactly one (child, Rule 2)
// application, turning the pattern graph into a forest whose roots are
// the fully deterministic patterns.
func (p Pattern) Rule2Parents() []Pattern {
	start := p.rightmostWildcard() + 1
	var out []Pattern
	for i := start; i < len(p); i++ {
		if p[i] != 0 {
			continue
		}
		q := p.Clone()
		q[i] = Wildcard
		out = append(out, q)
	}
	return out
}

// Rule2Child returns the unique child responsible for generating p
// under Rule 2 (the right-most wildcard replaced by value 0), and
// false for fully deterministic patterns, which have no generator.
func (p Pattern) Rule2Child() (Pattern, bool) {
	i := p.rightmostWildcard()
	if i < 0 {
		return nil, false
	}
	q := p.Clone()
	q[i] = 0
	return q, true
}

// DescendantsAtLevel enumerates all descendants of p at exactly level
// target (patterns obtained by instantiating target-ℓ(P) wildcards of p
// with concrete values; see the paper's Appendix C). It returns nil if
// target < ℓ(P); if target == ℓ(P) it returns p itself.
func (p Pattern) DescendantsAtLevel(cards []int, target int) []Pattern {
	lvl := p.Level()
	if target < lvl {
		return nil
	}
	if target == lvl {
		return []Pattern{p.Clone()}
	}
	var out []Pattern
	cur := p.Clone()
	var rec func(pos, need int)
	rec = func(pos, need int) {
		if need == 0 {
			out = append(out, cur.Clone())
			return
		}
		// Count remaining wildcards; prune when not enough remain.
		remaining := 0
		for i := pos; i < len(cur); i++ {
			if cur[i] == Wildcard {
				remaining++
			}
		}
		if remaining < need {
			return
		}
		for i := pos; i < len(cur); i++ {
			if cur[i] != Wildcard {
				continue
			}
			for v := 0; v < cards[i]; v++ {
				cur[i] = uint8(v)
				rec(i+1, need-1)
			}
			cur[i] = Wildcard
		}
	}
	rec(0, target-lvl)
	return out
}

// DescendantCount returns the number of descendants of p at exactly
// level target — what DescendantsAtLevel would materialize — without
// enumerating them: the degree-(target-ℓ(P)) elementary symmetric
// polynomial of the cardinalities of p's wildcard attributes,
// saturating at math.MaxUint64 on overflow. It returns 0 if
// target < ℓ(P) and 1 if target == ℓ(P).
func (p Pattern) DescendantCount(cards []int, target int) uint64 {
	lvl := p.Level()
	if target < lvl {
		return 0
	}
	need := target - lvl
	// e[k] accumulates the elementary symmetric polynomial of degree k
	// over the wildcard cardinalities seen so far.
	const sat = ^uint64(0)
	e := make([]uint64, need+1)
	e[0] = 1
	for i, v := range p {
		if v != Wildcard {
			continue
		}
		c := uint64(cards[i])
		for k := need; k >= 1; k-- {
			if e[k-1] == 0 {
				continue
			}
			add := e[k-1] * c
			if e[k-1] != sat && add/c != e[k-1] {
				add = sat
			}
			if e[k]+add < e[k] { // overflow
				e[k] = sat
			} else {
				e[k] += add
			}
		}
	}
	return e[need]
}

// EnumerateAll enumerates every pattern over the given cardinalities
// (all Π(ci+1) of them) and calls fn for each. It is intended for
// tests and the naïve baseline only; the count is exponential in d.
// Enumeration stops early if fn returns false.
func EnumerateAll(cards []int, fn func(Pattern) bool) {
	p := All(len(cards))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(cards) {
			return fn(p)
		}
		p[i] = Wildcard
		if !rec(i + 1) {
			return false
		}
		for v := 0; v < cards[i]; v++ {
			p[i] = uint8(v)
			if !rec(i + 1) {
				return false
			}
		}
		p[i] = Wildcard
		return true
	}
	rec(0)
}

// EnumerateCombos enumerates every fully deterministic value
// combination over the given cardinalities and calls fn for each,
// reusing a single buffer (fn must not retain it). Enumeration stops
// early if fn returns false.
func EnumerateCombos(cards []int, fn func(combo []uint8) bool) {
	combo := make([]uint8, len(cards))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(cards) {
			return fn(combo)
		}
		for v := 0; v < cards[i]; v++ {
			combo[i] = uint8(v)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// TotalPatterns returns Π(ci+1), the number of nodes of the pattern
// graph, saturating at math.MaxUint64 on overflow.
func TotalPatterns(cards []int) uint64 {
	n := uint64(1)
	for _, c := range cards {
		m := n * uint64(c+1)
		if m/uint64(c+1) != n {
			return ^uint64(0)
		}
		n = m
	}
	return n
}

// TotalCombos returns Π ci, the number of value combinations,
// saturating at math.MaxUint64 on overflow.
func TotalCombos(cards []int) uint64 {
	n := uint64(1)
	for _, c := range cards {
		if c == 0 {
			return 0
		}
		m := n * uint64(c)
		if m/uint64(c) != n {
			return ^uint64(0)
		}
		n = m
	}
	return n
}
