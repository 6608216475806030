package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"coverage"
	"coverage/internal/engine"
	"coverage/internal/mup"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// ndjsonBatchRows mirrors covserve's streaming-append batch size, so a
// replayed bulk load reaches the same engine generation as the server.
const ndjsonBatchRows = 4096

// feedMaxBytes mirrors covserve's cap on one /wal response.
const feedMaxBytes = 4 << 20

// shards is covserve's default shard count: one per CPU, capped at 16.
func shards() int { return min(max(runtime.GOMAXPROCS(0), 1), 16) }

// replay re-executes a workload's stream in-process through each
// layer's public functions, in the order covserve's handlers call them.
type replay struct {
	b  *bench
	tr *tracer

	reg     *registry.Registry
	engs    []*engine.Engine
	leader  *persist.Store // ingest-replicated: the durable leader
	replica *persist.Store // ingest-replicated: the follower's store
	mirror  *engine.Engine // ingest-replicated: the mutations on a bare engine
	fedGen  uint64         // the follower's position in the leader's WAL
	nMUPs   int            // stream /mups requests replayed so far

	loadS, buildS      float64
	mupCounts          []int // per op, -1 where none
	planTargets        []int
	planTuples         []int
	snapBytes          []float64
	feedBytes, fedRows int64
	wall               time.Duration // the stream's ops, end to end
}

// searchSampleEvery picks which /mups operations also time a bare
// ParallelPatternBreaker run on the engine's oracle (mup.search_ms).
func (b *bench) searchSampleEvery() int {
	if b.workload == auditCold {
		return 3
	}
	return 16
}

// runReplay replays setup, warm-up and stream in dir. The caller
// closes the returned replay.
func (b *bench) runReplay(dir string, traced bool) (_ *replay, err error) {
	r := &replay{b: b, tr: newTracer(traced)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	opts := engine.Options{Shards: shards()}
	for _, t := range b.in.tenants {
		start := time.Now()
		if _, err := serverView(t.csv); err != nil {
			return nil, err
		}
		r.loadS += time.Since(start).Seconds()
	}
	if r.reg, err = registry.Open(registry.Options{Engine: opts}); err != nil {
		return nil, err
	}
	start := time.Now()
	switch b.workload {
	case probeRead:
		for _, t := range b.in.tenants {
			if _, err := r.reg.Ensure(t.id, t.ds.Schema(), registry.TenantOptions{}); err != nil {
				return nil, err
			}
			h, err := r.reg.Acquire(t.id)
			if err != nil {
				return nil, err
			}
			for lo := 0; lo < t.ds.NumRows(); lo += ndjsonBatchRows {
				batch := make([][]uint8, 0, ndjsonBatchRows)
				for i := lo; i < min(lo+ndjsonBatchRows, t.ds.NumRows()); i++ {
					batch = append(batch, t.ds.Row(i))
				}
				if err := h.Engine().Append(batch); err != nil {
					h.Release()
					return nil, err
				}
			}
			r.engs = append(r.engs, h.Engine())
			h.Release()
		}
		r.buildS = time.Since(start).Seconds()
	default:
		ds := b.in.tenants[0].ds
		eng := engine.NewFromDataset(ds, opts)
		r.buildS = time.Since(start).Seconds()
		r.engs = []*engine.Engine{eng}
		if b.workload == ingestReplicated {
			if r.leader, err = attachStore(filepath.Join(dir, "leader"), eng); err != nil {
				return nil, err
			}
			if r.replica, err = attachStore(filepath.Join(dir, "follower"), engine.NewFromDataset(ds, opts)); err != nil {
				return nil, err
			}
			r.mirror = engine.NewFromDataset(ds, opts)
			r.fedGen = eng.Generation()
		}
		if err := r.reg.Adopt(registry.DefaultTenant, eng, r.leader, registry.TenantOptions{}); err != nil {
			return nil, err
		}
	}
	for i := range b.in.warm {
		if err := r.exec(-1, &b.in.warm[i]); err != nil {
			return nil, fmt.Errorf("replaying warm-up: %w", err)
		}
	}
	n := len(b.in.ops)
	r.mupCounts, r.planTargets, r.planTuples = make([]int, n), make([]int, n), make([]int, n)
	t0 := time.Now()
	for i := range b.in.ops {
		r.mupCounts[i], r.planTargets[i], r.planTuples[i] = -1, -1, -1
		if err := r.exec(i, &b.in.ops[i]); err != nil {
			return nil, fmt.Errorf("replaying op %d (%s %s): %w", i, b.in.ops[i].method, b.in.ops[i].path, err)
		}
	}
	r.wall = time.Since(t0)
	return r, nil
}

func attachStore(dir string, eng *engine.Engine) (*persist.Store, error) {
	s, err := persist.Open(dir, persist.Options{SyncWAL: true})
	if err != nil {
		return nil, err
	}
	if err := s.Attach(eng); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (r *replay) close() {
	for _, s := range []*persist.Store{r.leader, r.replica} {
		if s != nil {
			_ = s.Close() // the replay's stores are scratch, deleted next
		}
	}
}

// acquire and release bracket a request the way covserve's gateway
// does: one lease on the tenant for the request's whole duration.
func (r *replay) acquire(i, root int, id string) (*registry.Handle, error) {
	s := r.tr.begin("registry.acquire", i, root)
	defer r.tr.end(s)
	return r.reg.Acquire(id)
}

func (r *replay) release(i, root int, h *registry.Handle) {
	s := r.tr.begin("registry.release", i, root)
	h.Release()
	r.tr.end(s)
}

// mups runs one MUP lookup and names its span by what the engine did.
func (r *replay) mups(i, root int, eng *engine.Engine, opts mup.Options) (*mup.Result, error) {
	before := eng.Stats()
	s := r.tr.begin("engine.mups", i, root)
	res, err := eng.MUPs(opts)
	r.tr.end(s)
	after := eng.Stats()
	switch {
	case after.CacheHits > before.CacheHits:
		r.tr.rename(s, "engine.mups.hit")
	case after.FullSearches > before.FullSearches:
		r.tr.rename(s, "engine.mups.search")
	default:
		r.tr.rename(s, "engine.mups.repair")
	}
	return res, err
}

// exec replays one operation; i < 0 marks warm-up requests, whose spans
// no metric reads.
func (r *replay) exec(i int, o *op) error {
	root := r.tr.begin("op", i, -1)
	err := r.execOp(i, root, o)
	r.tr.end(root)
	if err != nil {
		return err
	}
	switch o.Kind {
	case opAppend, opDelete:
		// Off the request's path: the same mutation on a bare engine
		// (the engine layer's share), then the follower's tail.
		name, mutate := "engine.append", r.mirror.Append
		if o.Kind == opDelete {
			name, mutate = "engine.delete", r.mirror.Delete
		}
		s := r.tr.begin(name, i, -1)
		err = mutate(o.Rows)
		r.tr.end(s)
		if err != nil {
			return err
		}
		return r.tail(i)
	case opMUPs:
		if i < 0 {
			break
		}
		if r.nMUPs++; r.nMUPs%r.b.searchSampleEvery() == 0 {
			eng := r.engs[o.Tenant]
			if o.Follower {
				eng = r.replica.Engine()
			}
			s := r.tr.begin("mup.search", i, -1)
			_, err = mup.ParallelPatternBreaker(eng.Oracle(), mup.ParallelOptions{Options: mup.Options{Threshold: o.Tau, MaxLevel: o.Level}})
			r.tr.end(s)
		}
	}
	return err
}

func (r *replay) execOp(i, root int, o *op) error {
	if o.Kind == opMUPs && o.Follower {
		// The follower serves its own engine directly: no gateway, no
		// registry lease.
		res, err := r.mups(i, root, r.replica.Engine(), mup.Options{Threshold: o.Tau, MaxLevel: o.Level})
		if err == nil && i >= 0 {
			r.mupCounts[i] = len(res.MUPs)
		}
		return err
	}
	id := r.b.in.tenants[o.Tenant].id
	if r.b.workload != probeRead {
		id = registry.DefaultTenant
	}
	h, err := r.acquire(i, root, id)
	if err != nil {
		return err
	}
	defer r.release(i, root, h)
	eng := h.Engine()
	switch o.Kind {
	case opCoverage:
		s := r.tr.begin("pattern.parse", i, root)
		schema := eng.Schema()
		ps := make([]coverage.Pattern, len(o.Patterns))
		for k, raw := range o.Patterns {
			if ps[k], err = coverage.ParsePattern(raw, schema); err != nil {
				break
			}
		}
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.begin("engine.coverage_batch", i, root)
		_, err = eng.CoverageBatch(ps)
		r.tr.end(s)
	case opMUPs:
		var res *mup.Result
		res, err = r.mups(i, root, eng, mup.Options{Threshold: o.Tau, MaxLevel: o.Level})
		if err == nil && i >= 0 {
			r.mupCounts[i] = len(res.MUPs)
		}
	case opPlan:
		// covserve's /plan audits at the plan's τ without a level
		// bound, then plans from that MUP set.
		mopts := mup.Options{Threshold: o.Tau}
		if _, err = r.mups(i, root, eng, mopts); err != nil {
			return err
		}
		s := r.tr.begin("engine.plan", i, root)
		plan, perr := eng.Plan(context.Background(), mopts, engine.PlanSpec{MaxLevel: o.Level})
		r.tr.end(s)
		if err = perr; err == nil && i >= 0 {
			r.planTargets[i], r.planTuples[i] = len(plan.Targets), plan.NumTuples()
		}
	case opAppend:
		s := r.tr.begin("persist.append", i, root)
		err = h.Store().Append(o.Rows)
		r.tr.end(s)
	case opDelete:
		s := r.tr.begin("persist.delete", i, root)
		err = h.Store().Delete(o.Rows)
		r.tr.end(s)
	case opSnapshot:
		s := r.tr.begin("persist.snapshot", i, root)
		res, serr := h.Store().Snapshot()
		r.tr.end(s)
		if err = serr; err == nil && i >= 0 {
			r.snapBytes = append(r.snapBytes, float64(res.Bytes))
		}
	}
	return err
}

// tail is one turn of the follower's loop: fetch the leader's WAL past
// the follower's position, decode it and apply it through the
// follower's own durable store.
func (r *replay) tail(i int) error {
	root := r.tr.begin("replica", i, -1)
	defer r.tr.end(root)
	s := r.tr.begin("persist.wal_since", i, root)
	data, _, err := r.leader.WALSince(r.fedGen, feedMaxBytes)
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin("persist.decode_wal", i, root)
	recs, complete := persist.DecodeWALStream(data, r.b.in.tenants[0].ds.Dim())
	r.tr.end(s)
	if !complete {
		return fmt.Errorf("torn WAL feed from generation %d", r.fedGen)
	}
	s = r.tr.begin("replica.apply", i, root)
	defer r.tr.end(s)
	for _, rec := range recs {
		switch rec.Op {
		case persist.WALOpAppend:
			err = r.replica.Append(rec.Rows)
		case persist.WALOpDelete:
			err = r.replica.Delete(rec.Rows)
		default:
			err = fmt.Errorf("unexpected WAL op %d", rec.Op)
		}
		if err != nil {
			return err
		}
		r.fedGen = rec.Gen
		r.fedRows += int64(len(rec.Rows))
	}
	r.feedBytes += int64(len(data))
	return nil
}

// crossCheck proves the replay timed the server's work: the same final
// generation and row count per tenant, the same MUP sets read back
// after the stream, and the same per-request MUP counts and plans.
func (r *replay) crossCheck(m *measured) []error {
	var errs []error
	for t, st := range m.final {
		eng := r.engs[t]
		if eng.Generation() != st.Generation || eng.Rows() != st.Rows {
			errs = append(errs, fmt.Errorf("replay tenant %s at generation %d with %d rows, server at %d with %d",
				r.b.in.tenants[t].id, eng.Generation(), eng.Rows(), st.Generation, st.Rows))
		}
	}
	for _, q := range m.mupSets {
		eng := r.engs[q.tenant]
		if q.follower {
			eng = r.replica.Engine()
		}
		res, err := eng.MUPs(mup.Options{Threshold: q.tau, MaxLevel: q.level})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		got := make([]string, len(res.MUPs))
		for k, p := range res.MUPs {
			got[k] = p.String()
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(q.set, ",") {
			errs = append(errs, fmt.Errorf("replay MUP set at τ=%d level=%d (follower=%v) differs from the server's", q.tau, q.level, q.follower))
		}
	}
	for i := range r.b.in.ops {
		s := &m.stream.samples[i]
		if s.failed() {
			continue
		}
		switch r.b.in.ops[i].Kind {
		case opMUPs:
			if int64(r.mupCounts[i]) != s.mups {
				errs = append(errs, fmt.Errorf("op %d: replay found %d MUPs, server %d", i, r.mupCounts[i], s.mups))
			}
		case opPlan:
			if r.planTargets[i] != s.targets || r.planTuples[i] != s.tuples {
				errs = append(errs, fmt.Errorf("op %d: replay plan %d targets/%d tuples, server %d/%d",
					i, r.planTargets[i], r.planTuples[i], s.targets, s.tuples))
			}
		}
	}
	return errs
}

// replayDir makes a fresh directory for one replay pass.
func replayDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
