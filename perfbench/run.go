package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload names, as BENCHMARK.json and later changes refer to them.
const (
	probeRead        = "probe-read"
	auditCold        = "audit-cold"
	ingestReplicated = "ingest-replicated"
)

// Stream lengths per measured second. Each run executes a fixed number
// of operations derived from --seconds, never "as many as fit": on this
// class of machine fixed-duration runs varied far more than
// fixed-count ones.
const (
	probeRate          = 200 // offered requests/s, open loop
	auditStepsPerSec   = 5   // audit steps (a /mups, 4 coverage batches, a /plan every 2nd)
	ingestCyclesPerSec = 25  // ingest cycles (2 mutations, 2 /mups, 1 coverage batch)
)

// setupRepeats is how many times a run boots the system to take the
// median set-up time; the stream runs on the last boot.
const setupRepeats = 3

// bench holds what one invocation shares across boots.
type bench struct {
	workload string
	bin      string // covserve binary
	work     string // scratch directory for data dirs and traces
	seed     int64
	seconds  int
	sz       sizes
	in       *inputs
	csvPath  string
	ndjson   [][]byte // per tenant, probe-read's bulk-load bodies
	schemas  [][]byte // per tenant, probe-read's PUT bodies
	clients  int      // connections per server; 0 means the workload's default
}

// cluster is one booted system: the leader, the follower where the
// workload has one, and a client per server.
type cluster struct {
	leader, follower *proc
	lc, fc           *http.Client
}

func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.follower.stop()
	c.leader.stop()
}

func (b *bench) conns() int {
	if b.clients > 0 {
		return b.clients
	}
	if b.workload == probeRead {
		return 2
	}
	return 1
}

// generate builds the seeded inputs and writes the files covserve
// loads.
func (b *bench) generate() error {
	var err error
	switch b.workload {
	case probeRead:
		b.in, err = genProbeRead(b.seed, probeRate*b.seconds, b.sz)
	case auditCold:
		b.in, err = genAuditCold(b.seed, auditStepsPerSec*b.seconds, b.sz)
	case ingestReplicated:
		b.in, err = genIngestReplicated(b.seed, ingestCyclesPerSec*b.seconds, b.sz)
	default:
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if err != nil {
		return err
	}
	if b.workload == probeRead {
		for _, t := range b.in.tenants {
			b.schemas = append(b.schemas, schemaBody(t))
			b.ndjson = append(b.ndjson, ndjsonBody(t))
		}
		return nil
	}
	b.csvPath = filepath.Join(b.work, "data.csv")
	return os.WriteFile(b.csvPath, b.in.tenants[0].csv, 0o644)
}

func schemaBody(t tenantData) []byte {
	s := t.ds.Schema()
	type attr struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	attrs := make([]attr, s.Dim())
	for i := range attrs {
		attrs[i] = attr{Name: s.Attr(i).Name, Values: s.Attr(i).Values}
	}
	body, _ := json.Marshal(map[string]any{"attributes": attrs})
	return body
}

func ndjsonBody(t tenantData) []byte {
	var b bytes.Buffer
	for r := 0; r < t.ds.NumRows(); r++ {
		b.WriteByte('[')
		for i, v := range t.ds.Row(r) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteString("]\n")
	}
	return b.Bytes()
}

// boot starts the system and brings it warm: it returns once the first
// warm answer is in, with the time that took from process start.
func (b *bench) boot(ctx context.Context, n int) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{lc: newClient(b.conns())}
	var err error
	switch b.workload {
	case probeRead:
		c.leader, err = startCovserve(b.bin)
		if err != nil {
			return nil, 0, err
		}
		for i, t := range b.in.tenants {
			base := c.leader.addr + "/datasets/" + t.id
			if _, err := mustOK(ctx, c.lc, "PUT", base, b.schemas[i], "application/json"); err != nil {
				c.stop()
				return nil, 0, err
			}
			if _, err := mustOK(ctx, c.lc, "POST", base+"/append", b.ndjson[i], "application/x-ndjson"); err != nil {
				c.stop()
				return nil, 0, err
			}
		}
	case auditCold:
		c.leader, err = startCovserve(b.bin, "-csv", b.csvPath)
	case ingestReplicated:
		dir := filepath.Join(b.work, fmt.Sprintf("boot%d", n))
		c.leader, err = startCovserve(b.bin, "-csv", b.csvPath, "-data-dir", filepath.Join(dir, "leader"),
			"-wal-sync=true", "-snapshot-interval", "0")
		if err == nil {
			c.follower, err = startCovserve(b.bin, "-follow", c.leader.addr, "-data-dir", filepath.Join(dir, "follower"),
				"-snapshot-interval", "0")
			c.fc = newClient(1)
		}
	}
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	for _, o := range b.in.warm {
		if r := c.send(ctx, &o); !r.ok() {
			c.stop()
			return nil, 0, fmt.Errorf("warm-up %s %s: %w", o.method, o.path, r.failure())
		}
	}
	return c, time.Since(start), nil
}

// send sends one stream operation to the server it targets.
func (c *cluster) send(ctx context.Context, o *op) reply {
	if o.Follower {
		return do(ctx, c.fc, o.method, c.follower.addr+o.path, o.body, "application/json")
	}
	return do(ctx, c.lc, o.method, c.leader.addr+o.path, o.body, "application/json")
}

// sample is one executed operation. Times are offsets from the start
// of the stream; due equals sent in a closed loop.
type sample struct {
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte // kept for coverage answers only
	// Scalars read off the answer.
	gen                 uint64 // mutate ack generation, or the follower's
	mups, probes        int64
	targets, tuples     int
	reqBytes, respBytes int
	lag                 time.Duration // mutate: ack until the follower serves it
	lagErr              error
}

func (s *sample) failed() bool { return s.err != nil || s.status/100 != 2 || s.lagErr != nil }

func (s *sample) failure() error {
	switch {
	case s.err != nil:
		return s.err
	case s.lagErr != nil:
		return s.lagErr
	}
	return fmt.Errorf("status %d", s.status)
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// record fills a sample from a reply, keeping only what the checks and
// metrics read so a long stream of MUP bodies is not held in memory.
func record(s *sample, o *op, r reply) {
	s.status, s.err = r.status, r.err
	s.reqBytes, s.respBytes = len(o.body), len(r.body)
	if !r.ok() {
		return
	}
	switch o.Kind {
	case opCoverage:
		s.body = r.body
	case opMUPs:
		s.mups = scanInt(r.body, "total_mups")
		s.probes = scanInt(r.body, "coverage_probes")
		s.gen = r.gen
	case opPlan:
		var p struct {
			Targets int `json:"targets"`
			Tuples  int `json:"tuples_to_collect"`
		}
		s.err = json.Unmarshal(r.body, &p)
		s.targets, s.tuples = p.Targets, p.Tuples
	case opAppend, opDelete:
		var m struct {
			Generation uint64 `json:"generation"`
		}
		s.err = json.Unmarshal(r.body, &m)
		s.gen = m.Generation
	}
}

// scanField returns the JSON value text after the last "key": in
// body; MUP bodies run to megabytes and only their scalars are needed.
func scanField(body []byte, key string) []byte {
	i := bytes.LastIndex(body, []byte(`"`+key+`":`))
	if i < 0 {
		return nil
	}
	rest := bytes.TrimLeft(body[i+len(key)+3:], " \t\n")
	j := bytes.IndexAny(rest, ",}\n")
	if j < 0 {
		j = len(rest)
	}
	return bytes.TrimSpace(rest[:j])
}

func scanInt(body []byte, key string) int64 {
	v, err := strconv.ParseInt(string(scanField(body, key)), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// streamResult is one executed stream.
type streamResult struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // the generator's own CPU time
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runClosed sends the stream from one client, each request after the
// previous answer. After every mutation it waits until the follower
// serves the acknowledged generation, which is the replica lag sample.
func (c *cluster) runClosed(ctx context.Context, ops []op) streamResult {
	res := streamResult{samples: make([]sample, len(ops))}
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := range ops {
		o, s := &ops[i], &res.samples[i]
		s.sent = time.Since(t0)
		s.due = s.sent
		r := c.send(ctx, o)
		s.done = time.Since(t0)
		record(s, o, r)
		if c.follower != nil && (o.Kind == opAppend || o.Kind == opDelete) && !s.failed() {
			s.lag, s.lagErr = c.awaitFollower(ctx, s.gen, t0.Add(s.done))
		}
	}
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	return res
}

// awaitFollower polls the follower until it serves generation gen and
// returns the time since ack.
func (c *cluster) awaitFollower(ctx context.Context, gen uint64, ack time.Time) (time.Duration, error) {
	deadline := ack.Add(10 * time.Second)
	for {
		r := do(ctx, c.fc, "GET", c.follower.addr+"/healthz", nil, "")
		if !r.ok() {
			return 0, fmt.Errorf("follower healthz: %w", r.failure())
		}
		if r.gen >= gen {
			return time.Since(ack), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("follower still at generation %d, 10s after the leader acked %d", r.gen, gen)
		}
	}
}

// runOpen sends op i at i/rate seconds from the start, from at most
// conns connections; a request that finds every connection busy goes
// late, and its latency counts from when it was due.
func (c *cluster) runOpen(ctx context.Context, ops []op, rate float64, conns int) streamResult {
	res := streamResult{samples: make([]sample, len(ops))}
	var next atomic.Int64
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &res.samples[i]
				s.due = time.Duration(float64(i) / rate * float64(time.Second))
				sleepUntil(t0, s.due)
				s.sent = time.Since(t0)
				r := c.send(ctx, &ops[i])
				s.done = time.Since(t0)
				record(s, &ops[i], r)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	return res
}

// sleepUntil blocks the calling thread until due after t0. time.Sleep
// would not do: with every goroutine parked, the runtime waits on its
// poller in whole milliseconds, which would add up to a millisecond of
// the generator's own lateness to every open-loop request.
func sleepUntil(t0 time.Time, due time.Duration) {
	for {
		d := due - time.Since(t0)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep loops and re-checks
	}
}

// counters is a scrape of cumulative server counters by name.
type counters map[string]float64

func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

type statsJSON struct {
	Rows         int64  `json:"rows"`
	Generation   uint64 `json:"generation"`
	Compactions  int64  `json:"compactions"`
	FullSearches int64  `json:"full_searches"`
	Repairs      int64  `json:"incremental_repairs"`
	BidirRepairs int64  `json:"bidirectional_repairs"`
	CacheHits    int64  `json:"cache_hits"`
	PlanCache    struct {
		Probes        int64 `json:"probes"`
		Hits          int64 `json:"hits"`
		Builds        int64 `json:"builds"`
		TargetRepairs int64 `json:"target_repairs"`
		Rebuilds      int64 `json:"seeded_rebuilds"`
	} `json:"plan_cache"`
	Persist *struct {
		Snapshots         int64 `json:"snapshots"`
		DeltaSnapshots    int64 `json:"delta_snapshots"`
		LastSnapshotBytes int64 `json:"last_snapshot_bytes"`
		WALGroupCommits   int64 `json:"wal_group_commits"`
		WALGroupRecords   int64 `json:"wal_grouped_records"`
	} `json:"persist"`
	Replica *struct {
		Polls   int64 `json:"polls"`
		Resyncs int64 `json:"resyncs"`
	} `json:"replica"`
}

// tenantStats fetches every tenant's engine stats from the leader.
func (b *bench) tenantStats(ctx context.Context, c *cluster) ([]statsJSON, error) {
	out := make([]statsJSON, len(b.in.tenants))
	for i, t := range b.in.tenants {
		url := c.leader.addr + "/stats"
		if b.workload == probeRead {
			url = c.leader.addr + "/datasets/" + t.id + "/stats"
		}
		if err := getJSON(ctx, c.lc, url, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrape reads /stats of every tenant, /datasets and the follower's
// /stats into named cumulative counters.
func (b *bench) scrape(ctx context.Context, c *cluster) (counters, error) {
	out := counters{}
	sts, err := b.tenantStats(ctx, c)
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		out["engine.compactions"] += float64(st.Compactions)
		out["engine.full_searches"] += float64(st.FullSearches)
		out["engine.repairs"] += float64(st.Repairs)
		out["engine.bidir_repairs"] += float64(st.BidirRepairs)
		out["engine.cache_hits"] += float64(st.CacheHits)
		out["engine.plan_probes"] += float64(st.PlanCache.Probes)
		out["engine.plan_hits"] += float64(st.PlanCache.Hits)
		out["engine.plan_builds"] += float64(st.PlanCache.Builds)
		out["engine.plan_repairs"] += float64(st.PlanCache.TargetRepairs)
		out["engine.plan_rebuilds"] += float64(st.PlanCache.Rebuilds)
		if p := st.Persist; p != nil {
			out["persist.snapshots"] += float64(p.Snapshots)
			out["persist.delta_snapshots"] += float64(p.DeltaSnapshots)
			out["persist.wal_group_commits"] += float64(p.WALGroupCommits)
			out["persist.wal_group_records"] += float64(p.WALGroupRecords)
		}
	}
	var list struct {
		Stats struct {
			Restores  int64 `json:"restores"`
			Evictions int64 `json:"evictions"`
		} `json:"stats"`
	}
	if err := getJSON(ctx, c.lc, c.leader.addr+"/datasets", &list); err != nil {
		return nil, err
	}
	out["registry.restores"] = float64(list.Stats.Restores)
	out["registry.evictions"] = float64(list.Stats.Evictions)
	if c.follower != nil {
		var fs statsJSON
		if err := getJSON(ctx, c.fc, c.follower.addr+"/stats", &fs); err != nil {
			return nil, err
		}
		if fs.Replica != nil {
			out["replica.polls"] = float64(fs.Replica.Polls)
			out["replica.resyncs"] = float64(fs.Replica.Resyncs)
		}
	}
	return out, nil
}

// measured is everything one run observed end to end.
type measured struct {
	setups  []time.Duration
	rssMB   float64
	stream  streamResult
	before  counters
	delta   counters
	final   []statsJSON  // per tenant, after the stream
	mupSets []mupCheck   // leader (and follower) MUP sets after the stream
	checks  []error      // answer-check failures
	ladder  []ladderStep // probe-read, traced runs only
	// stealPct is the share of the host's CPU time stolen by other
	// guests during the stream: context for a noisy run, not a metric.
	stealPct float64
}

// cpuSteal reads the aggregate steal and total jiffies from /proc/stat.
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64) // malformed reads as 0: diagnostics only
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// measure boots the system the given number of times, runs the stream
// on the last boot and checks every answer.
func (b *bench) measure(ctx context.Context, boots int, ladder bool) (*measured, error) {
	m := &measured{}
	var c *cluster
	for n := 0; n < boots; n++ {
		cl, d, err := b.boot(ctx, n)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d)
		if n < boots-1 {
			cl.stop()
			continue
		}
		c = cl
	}
	defer c.stop()
	var err error
	if m.before, err = b.scrape(ctx, c); err != nil {
		return nil, err
	}
	steal0, total0 := cpuSteal()
	if b.workload == probeRead {
		m.stream = c.runOpen(ctx, b.in.ops, probeRate, b.conns())
	} else {
		m.stream = c.runClosed(ctx, b.in.ops)
	}
	steal1, total1 := cpuSteal()
	m.stealPct = 100 * safeDiv(steal1-steal0, total1-total0)
	after, err := b.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	m.delta = after.sub(m.before)
	if m.rssMB, err = c.leader.peakRSSMB(); err != nil {
		return nil, err
	}
	if m.final, err = b.tenantStats(ctx, c); err != nil {
		return nil, err
	}
	m.checks = b.checkAnswers(ctx, c, m)
	if ladder {
		m.ladder = b.runLadder(ctx, c)
	}
	return m, nil
}

// Rate ladder (probe-read, traced runs): the offered rates tried, how
// long each step runs, and the coverage tail limit a step must meet.
var ladderRates = []float64{probeRate, 2 * probeRate, 4 * probeRate, 8 * probeRate, 16 * probeRate, 24 * probeRate, 32 * probeRate, 48 * probeRate}

const (
	ladderSeconds = 2
	ladderLimitMs = 5.0
)

type ladderStep struct {
	rate     float64
	tailMs   float64
	lateMs   float64 // median send lateness over the step's last quarter
	failed   int
	attempts int
}

func (l ladderStep) meets() bool {
	return l.failed == 0 && l.tailMs <= ladderLimitMs && l.lateMs <= ladderLimitMs
}

// runLadder offers the stream's own operations at each ladder rate.
func (b *bench) runLadder(ctx context.Context, c *cluster) []ladderStep {
	var steps []ladderStep
	for _, rate := range ladderRates {
		n := int(rate) * ladderSeconds
		ops := make([]op, n)
		for i := range ops {
			ops[i] = b.in.ops[i%len(b.in.ops)]
		}
		res := c.runOpen(ctx, ops, rate, b.conns())
		st := ladderStep{rate: rate, attempts: n}
		var cov []float64
		var late []float64
		for i, s := range res.samples {
			if s.failed() {
				st.failed++
				continue
			}
			if ops[i].Kind == opCoverage {
				cov = append(cov, ms(s.latency()))
			}
			if i >= n*3/4 {
				late = append(late, ms(s.sent-s.due))
			}
		}
		if t, _, _, ok := tail(cov); ok {
			st.tailMs = t
		} else {
			st.tailMs = ladderLimitMs * 1e6
		}
		st.lateMs = median(late)
		steps = append(steps, st)
	}
	return steps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailSegment is the sample count per segment of a long run's tail.
const tailSegment = 100

// tail is the tail latency of samples in stream order: the highest
// percentile with at least ten samples beyond it. A run with more than
// 2×tailSegment samples is cut into consecutive segments of at least
// tailSegment samples, and the tail is the median of the segments'
// tails, so one stall of the shared machine moves one segment, not the
// run's figure. It returns the value, the percentile's rank within a
// segment, the segment count, and whether the sample supports a tail.
func tail(xs []float64) (value, pct float64, segments int, ok bool) {
	k := max(1, len(xs)/tailSegment)
	var vals []float64
	for i := 0; i < k; i++ {
		v, p, ok := plainTail(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		if !ok {
			return 0, 0, 0, false
		}
		vals = append(vals, v)
		pct = p
	}
	return median(vals), pct, k, true
}

// plainTail is the highest percentile with at least ten samples beyond
// it, with its rank.
func plainTail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}
