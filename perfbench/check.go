package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// coverageCheckEvery samples which /coverage answers are recomputed
// from the generator's own rows; scanCheckEvery of those (while the
// rows are unmutated) by a full dataset.CountMatches scan, the rest
// from the row multiset, which is 20 times faster on AirBnB.
const (
	coverageCheckEvery = 4
	scanCheckEvery     = 16
)

// mupCheck is one MUP set read back from a server after the stream.
type mupCheck struct {
	tenant   int
	follower bool
	tau      int64
	level    int
	gen      uint64
	set      []string
}

// shadow is the generator's own multiset of rows, advanced through the
// stream's mutations.
type shadow struct {
	ds     *dataset.Dataset
	counts map[string]int64 // row bytes → multiplicity
	rows   int64
}

func newShadow(ds *dataset.Dataset) *shadow {
	s := &shadow{ds: ds, counts: map[string]int64{}, rows: int64(ds.NumRows())}
	for r := 0; r < ds.NumRows(); r++ {
		s.counts[string(ds.Row(r))]++
	}
	return s
}

func (s *shadow) apply(o *op) {
	for _, r := range o.Rows {
		if o.Kind == opAppend {
			s.counts[string(r)]++
			s.rows++
		} else {
			if s.counts[string(r)]--; s.counts[string(r)] == 0 {
				delete(s.counts, string(r))
			}
			s.rows--
		}
	}
}

// coverage counts matching rows, by a scan of the generated dataset
// (valid only while it is unmutated) or over the multiset.
func (s *shadow) coverage(p pattern.Pattern, scan bool) int64 {
	if scan {
		return s.ds.CountMatches(p)
	}
	var n int64
	for k, c := range s.counts {
		if p.Matches([]uint8(k)) {
			n += c
		}
	}
	return n
}

// dataset materializes the multiset.
func (s *shadow) dataset() *dataset.Dataset {
	out := dataset.New(s.ds.Schema())
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i := int64(0); i < s.counts[k]; i++ {
			out.MustAppend([]uint8(k))
		}
	}
	return out
}

type coverageAnswer struct {
	Results []struct {
		Pattern  string `json:"pattern"`
		Coverage int64  `json:"coverage"`
	} `json:"results"`
}

// checkAnswers verifies the stream's answers and reads back the final
// MUP sets. A wrong answer marks its operation failed; run-level
// mismatches are returned.
func (b *bench) checkAnswers(ctx context.Context, c *cluster, m *measured) []error {
	var errs []error
	shadows := make([]*shadow, len(b.in.tenants))
	for i, t := range b.in.tenants {
		shadows[i] = newShadow(t.ds)
	}
	mutated := false
	var lastGen uint64
	nCov := 0
	for i := range b.in.ops {
		o, s := &b.in.ops[i], &m.stream.samples[i]
		switch o.Kind {
		case opAppend, opDelete:
			shadows[o.Tenant].apply(o)
			mutated = true
			if s.failed() {
				continue
			}
			if s.gen <= lastGen {
				s.err = fmt.Errorf("acked generation %d does not exceed the previous ack %d", s.gen, lastGen)
			}
			lastGen = s.gen
		case opMUPs:
			if o.Follower && !s.failed() && s.gen != lastGen {
				s.err = fmt.Errorf("follower served generation %d, leader last acked %d", s.gen, lastGen)
			}
		case opCoverage:
			nCov++
			if nCov%coverageCheckEvery != 0 || s.failed() {
				continue
			}
			scan := !mutated && nCov%(coverageCheckEvery*scanCheckEvery) == 0
			if err := checkCoverage(o, s.body, shadows[o.Tenant], scan); err != nil {
				s.err = err
			}
			s.body = nil
		}
	}

	// Final state: row counts, then every checked MUP set against an
	// in-process engine over the same rows.
	for i, st := range m.final {
		if st.Rows != shadows[i].rows {
			errs = append(errs, fmt.Errorf("tenant %s: server has %d rows, generator %d", b.in.tenants[i].id, st.Rows, shadows[i].rows))
		}
	}
	if c.follower != nil {
		if _, err := c.awaitFollower(ctx, m.final[0].Generation, time.Now()); err != nil {
			errs = append(errs, err)
		}
	}
	engines := make([]*engine.Engine, len(shadows))
	for _, q := range b.finalQueries() {
		if engines[q.tenant] == nil {
			engines[q.tenant] = engine.NewFromDataset(shadows[q.tenant].dataset(), engine.Options{})
		}
		res, err := engines[q.tenant].MUPs(mup.Options{Threshold: q.tau, MaxLevel: q.level})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want := make([]string, len(res.MUPs))
		for k, p := range res.MUPs {
			want[k] = p.String()
		}
		sort.Strings(want)
		targets := []bool{false}
		if c.follower != nil {
			targets = append(targets, true)
		}
		for _, fol := range targets {
			q.follower = fol
			got, gen, err := fetchMUPs(ctx, c, b.tenantPrefix(q.tenant), q)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			q.set, q.gen = got, gen
			m.mupSets = append(m.mupSets, q)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				errs = append(errs, fmt.Errorf("tenant %s τ=%d level=%d follower=%v: server returned %d MUPs, in-process engine %d (or different patterns)",
					b.in.tenants[q.tenant].id, q.tau, q.level, fol, len(got), len(want)))
			}
		}
	}
	return errs
}

func checkCoverage(o *op, body []byte, sh *shadow, scan bool) error {
	var ans coverageAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("coverage answer: %w", err)
	}
	if len(ans.Results) != len(o.Patterns) {
		return fmt.Errorf("coverage answer has %d results for %d patterns", len(ans.Results), len(o.Patterns))
	}
	for k, raw := range o.Patterns {
		p, err := pattern.Parse(raw, sh.ds.Cards())
		if err != nil {
			return err
		}
		if want := sh.coverage(p, scan); ans.Results[k].Coverage != want {
			return fmt.Errorf("coverage of %s: server %d, generator %d", raw, ans.Results[k].Coverage, want)
		}
	}
	return nil
}

// finalQueries are the MUP configurations read back after the stream:
// every warm one, and for audit-cold the last two audits (each τ there
// is distinct, so re-checking all would double the run).
func (b *bench) finalQueries() []mupCheck {
	type key struct {
		tenant int
		tau    int64
		level  int
	}
	seen := map[key]bool{}
	var qs []mupCheck
	add := func(o *op) {
		if k := (key{o.Tenant, o.Tau, o.Level}); !seen[k] {
			seen[k] = true
			qs = append(qs, mupCheck{tenant: o.Tenant, tau: o.Tau, level: o.Level})
		}
	}
	for i := range b.in.warm {
		if b.in.warm[i].Kind == opMUPs {
			add(&b.in.warm[i])
		}
	}
	var audits []*op
	for i := range b.in.ops {
		if b.in.ops[i].Kind == opMUPs {
			audits = append(audits, &b.in.ops[i])
		}
	}
	if b.workload == auditCold && len(audits) > 2 {
		audits = audits[len(audits)-2:]
	}
	for _, o := range audits {
		add(o)
	}
	return qs
}

func (b *bench) tenantPrefix(t int) string {
	if b.workload == probeRead {
		return "/datasets/" + b.in.tenants[t].id
	}
	return ""
}

// fetchMUPs reads a full MUP set from the leader or the follower.
func fetchMUPs(ctx context.Context, c *cluster, prefix string, q mupCheck) ([]string, uint64, error) {
	v := url.Values{"tau": {strconv.FormatInt(q.tau, 10)}}
	if q.level > 0 {
		v.Set("maxlevel", strconv.Itoa(q.level))
	}
	client, base := c.lc, c.leader.addr
	if q.follower {
		client, base = c.fc, c.follower.addr
	}
	r, err := mustOK(ctx, client, "GET", base+prefix+"/mups?"+v.Encode(), nil, "")
	if err != nil {
		return nil, 0, err
	}
	var ans struct {
		MUPs []struct {
			Pattern string `json:"pattern"`
		} `json:"mups"`
	}
	if err := json.Unmarshal(r.body, &ans); err != nil {
		return nil, 0, err
	}
	out := make([]string, len(ans.MUPs))
	for i, p := range ans.MUPs {
		out[i] = p.Pattern
	}
	sort.Strings(out)
	return out, r.gen, nil
}
