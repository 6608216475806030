// Command perfbench is the repository's end-to-end benchmark. For one
// named workload it generates a seeded dataset and a fixed-length
// seeded operation stream, boots covserve subprocesses (a leader, plus
// a follower where the workload has one), drives them over loopback,
// checks every answer, and prints each metric by name and unit. With
// --trace 1 it also replays the same stream in-process through each
// layer's public functions and reports per-layer metrics from spans.
//
//	perfbench --covserve <bin> --work <dir> --workload probe-read --seed 1 --seconds 10 --trace 0
//	perfbench compare --parent parent.jsonl --change change.jsonl --benchmark BENCHMARK.json
//	perfbench pairs --parent <checkout> --change <checkout> --pairs 10 --out <dir>
//
// The last line of a run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "pairs":
			os.Exit(pairsMain(os.Args[2:]))
		}
	}
	var (
		bin      = flag.String("covserve", "", "covserve binary to benchmark")
		work     = flag.String("work", "", "scratch directory for data files, data dirs and traces")
		workload = flag.String("workload", "", "probe-read, audit-cold or ingest-replicated")
		seed     = flag.Int64("seed", 1, "seed for the dataset and the operation stream")
		seconds  = flag.Int("seconds", 10, "nominal measured seconds; fixes the stream length")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --covserve, --work, --seconds >= 1 and --trace 0|1 are required")
		os.Exit(2)
	}
	b := &bench{workload: *workload, bin: *bin, seed: *seed, seconds: *seconds, sz: fullSize}
	res, err := b.run(context.Background(), *work, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// result is one run's report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	header string
	notes  map[string]string // per metric: the percentile and sample count behind it
	order  []string
	errors []error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(d metricDef, v float64, note string) {
	if r.Metrics == nil {
		r.Metrics, r.notes = map[string]metricValue{}, map[string]string{}
	}
	r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	r.notes[d.name] = note
	r.order = append(r.order, d.name)
}

func (r *result) print(f *os.File) {
	fmt.Fprintln(f, r.header)
	for _, e := range r.errors {
		fmt.Fprintln(f, "check failed:", e)
	}
	for _, n := range r.order {
		fmt.Fprintf(f, "%-30s %14.4f %-6s %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit, r.notes[n])
	}
	line, _ := json.Marshal(r) // plain numbers and strings: cannot fail
	fmt.Fprintln(f, string(line))
}

func (b *bench) run(ctx context.Context, work string, traced bool) (*result, error) {
	b.work = filepath.Join(work, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	if err := b.generate(); err != nil {
		return nil, err
	}
	boots := setupRepeats
	if traced {
		boots = 1 // set-up time is an end-to-end metric; the traced run skips it
	}
	m, err := b.measure(ctx, boots, traced && b.workload == probeRead)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(m.stream.samples), errors: m.checks,
		header: fmt.Sprintf("host CPU steal during the stream: %.1f%%", m.stealPct)}
	for _, s := range m.stream.samples {
		if s.failed() {
			res.Failed++
			if len(res.errors) < 5 {
				res.errors = append(res.errors, fmt.Errorf("operation failed: %v", s.failure()))
			}
		}
	}
	for _, st := range m.ladder {
		res.Attempted += st.attempts
		res.Failed += st.failed
	}
	if traced {
		if err := b.layerMetrics(res, m, work); err != nil {
			return nil, err
		}
	} else {
		b.endToEndMetrics(res, m)
	}
	res.Correct = res.Failed == 0 && len(res.errors) == 0
	return res, nil
}

// latencies gathers per-route latencies in ms. A failed operation
// counts as a miss: it is given the whole stream's length.
func latencies(m *measured, ops []op) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range m.stream.samples {
		v := ms(s.latency())
		if s.failed() {
			v = ms(m.stream.wall)
		}
		out[ops[i].Kind.route()] = append(out[ops[i].Kind.route()], v)
	}
	return out
}

func def(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: undefined metric " + name)
}

// setLatency reports a route's median and tail.
func setLatency(res *result, defs []metricDef, prefix string, xs []float64) {
	res.set(def(defs, prefix+"_p50_ms"), median(xs), fmt.Sprintf("n=%d", len(xs)))
	if t, pct, k, ok := tail(xs); ok {
		res.set(def(defs, prefix+"_tail_ms"), t, fmt.Sprintf("median over %d segment(s) of p%.2f, n=%d", k, pct, len(xs)))
	} else {
		res.set(def(defs, prefix+"_tail_ms"), 0, fmt.Sprintf("n=%d < 11: no percentile has 10 samples beyond it", len(xs)))
		res.errors = append(res.errors, fmt.Errorf("%s: %d samples cannot support a tail", prefix, len(xs)))
	}
}

func (b *bench) endToEndMetrics(res *result, m *measured) {
	setup := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setup[i] = d.Seconds()
	}
	res.set(def(endToEnd, "setup_s"), median(setup), fmt.Sprintf("median of %d boots", len(setup)))
	res.set(def(endToEnd, "server_rss_mb"), m.rssMB, "leader VmHWM")
	ok := 0
	for _, s := range m.stream.samples {
		if !s.failed() {
			ok++
		}
	}
	res.set(def(endToEnd, "throughput_rps"), float64(ok)/m.stream.wall.Seconds(),
		fmt.Sprintf("%d ops in %.2fs", ok, m.stream.wall.Seconds()))
	lat := latencies(m, b.in.ops)
	for _, route := range []string{"coverage", "mups", "plan"} {
		setLatency(res, endToEnd, route, lat[route])
	}
}

// layerMetrics replays the stream twice (spans on, spans off) and
// reports every per-layer metric.
func (b *bench) layerMetrics(res *result, m *measured, work string) error {
	dirOn, err := replayDir(b.work, "replay-on")
	if err != nil {
		return err
	}
	on, err := b.runReplay(dirOn, true)
	if err != nil {
		return err
	}
	defer on.close()
	res.errors = append(res.errors, on.crossCheck(m)...)
	dirOff, err := replayDir(b.work, "replay-off")
	if err != nil {
		return err
	}
	off, err := b.runReplay(dirOff, false)
	if err != nil {
		return err
	}
	off.close()
	tracePath := filepath.Join(work, fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed))
	if err := on.tr.write(tracePath); err != nil {
		return err
	}

	tr := on.tr
	self := tr.selfTimes()
	// opTime is each stream operation's in-process time: its root span.
	opTime := make([]float64, len(b.in.ops))
	for _, s := range tr.spans {
		if s.Name == "op" && s.Op >= 0 {
			opTime[s.Op] = ms(time.Duration(s.End - s.Start))
		}
	}
	streamOnly := func(name string) []float64 {
		var out []float64
		for i, s := range tr.spans {
			if s.Name == name && s.Op >= 0 {
				out = append(out, float64(self[i])/float64(time.Microsecond))
			}
		}
		return out
	}
	put := func(name string, v float64, note string) {
		d := def(perLayer, name)
		res.set(d, v, note+"; target: "+d.target)
	}
	medUs := func(name, span string) {
		xs := streamOnly(span)
		put(name, median(xs), fmt.Sprintf("median of %d %s spans", len(xs), span))
	}
	medMs := func(name, span string) {
		xs := streamOnly(span)
		put(name, median(xs)/1000, fmt.Sprintf("median of %d %s spans", len(xs), span))
	}

	// covserve: end-to-end service time minus the replay's in-process
	// time for the same operation, and the bytes on the wire.
	selfMs, req, resp, n := map[string][]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i, s := range m.stream.samples {
		route := b.in.ops[i].Kind.route()
		if s.failed() {
			continue
		}
		selfMs[route] = append(selfMs[route], ms(s.done-s.sent)-opTime[i])
		req[route] += float64(s.reqBytes)
		resp[route] += float64(s.respBytes)
		n[route]++
	}
	for _, route := range []string{"coverage", "mups", "plan", "mutate"} {
		put("covserve.self_ms."+route, median(selfMs[route]), fmt.Sprintf("median of %d", len(selfMs[route])))
		put("covserve.req_bytes."+route, safeDiv(req[route], n[route]), "mean")
		put("covserve.resp_bytes."+route, safeDiv(resp[route], n[route]), "mean")
	}

	// registry: a lease is one Acquire plus one Release.
	acq := map[int]float64{}
	for i, s := range tr.spans {
		if s.Op >= 0 && (s.Name == "registry.acquire" || s.Name == "registry.release") {
			acq[s.Op] += float64(self[i]) / float64(time.Microsecond)
		}
	}
	leases := make([]float64, 0, len(acq))
	for _, v := range acq {
		leases = append(leases, v)
	}
	put("registry.acquire_us", median(leases), fmt.Sprintf("median of %d leases", len(leases)))
	put("registry.restores", m.delta["registry.restores"], "server counter delta")
	put("registry.evictions", m.delta["registry.evictions"], "server counter delta")
	medUs("pattern.parse_us", "pattern.parse")
	medUs("engine.coverage_batch_us", "engine.coverage_batch")
	medUs("engine.mups_us.hit", "engine.mups.hit")
	medUs("engine.mups_us.search", "engine.mups.search")
	medUs("engine.mups_us.repair", "engine.mups.repair")

	d := m.delta
	lookups := d["engine.cache_hits"] + d["engine.full_searches"] + d["engine.repairs"] + d["engine.bidir_repairs"]
	put("engine.mup_cache_hit_ratio", safeDiv(d["engine.cache_hits"], lookups), fmt.Sprintf("of %.0f lookups", lookups))
	put("engine.mup_lookups", lookups, "server counter delta")
	for _, k := range []string{"full_searches", "repairs", "bidir_repairs", "compactions", "plan_builds", "plan_repairs", "plan_rebuilds"} {
		put("engine."+k, d["engine."+k], "server counter delta")
	}
	medUs("engine.append_us", "engine.append")
	medUs("engine.delete_us", "engine.delete")
	medUs("engine.plan_us", "engine.plan")
	put("engine.plan_hit_ratio", safeDiv(d["engine.plan_hits"], d["engine.plan_probes"]), fmt.Sprintf("of %.0f lookups", d["engine.plan_probes"]))
	put("engine.plan_lookups", d["engine.plan_probes"], "server counter delta")

	var targets, tuples, probes, mups []float64
	var sumProbes, sumMUPs float64
	for i, s := range m.stream.samples {
		if s.failed() {
			continue
		}
		switch b.in.ops[i].Kind {
		case opPlan:
			targets = append(targets, float64(s.targets))
			tuples = append(tuples, float64(s.tuples))
		case opMUPs:
			probes = append(probes, float64(s.probes))
			mups = append(mups, float64(s.mups))
			sumProbes += float64(s.probes)
			sumMUPs += float64(s.mups)
		}
	}
	put("enhance.targets", median(targets), fmt.Sprintf("median of %d /plan answers", len(targets)))
	put("enhance.tuples", median(tuples), fmt.Sprintf("median of %d /plan answers", len(tuples)))
	medMs("mup.search_ms", "mup.search")
	put("mup.coverage_probes", median(probes), fmt.Sprintf("median of %d /mups answers", len(probes)))
	put("mup.probes_per_mup", safeDiv(sumProbes, sumMUPs), fmt.Sprintf("%.0f probes / %.0f MUPs", sumProbes, sumMUPs))

	medMs("persist.append_ms", "persist.append")
	medMs("persist.delete_ms", "persist.delete")
	put("persist.records_per_fsync", safeDiv(d["persist.wal_group_records"], d["persist.wal_group_commits"]),
		fmt.Sprintf("%.0f records / %.0f group commits", d["persist.wal_group_records"], d["persist.wal_group_commits"]))
	put("persist.wal_bytes_per_row", safeDiv(float64(on.feedBytes), float64(on.fedRows)),
		fmt.Sprintf("%d feed bytes / %d rows", on.feedBytes, on.fedRows))
	medMs("persist.snapshot_ms", "persist.snapshot")
	put("persist.snapshot_bytes", median(on.snapBytes), fmt.Sprintf("median of %d snapshots", len(on.snapBytes)))
	put("persist.delta_snapshots", d["persist.delta_snapshots"], fmt.Sprintf("of %.0f snapshots", d["persist.snapshots"]))
	medUs("persist.wal_since_us", "persist.wal_since")
	medUs("persist.decode_wal_us", "persist.decode_wal")
	medMs("replica.apply_ms", "replica.apply")
	put("replica.polls", d["replica.polls"], "follower counter delta")
	put("replica.resyncs", d["replica.resyncs"], "follower counter delta")
	put("dataset.load_s", on.loadS, "ReadCSV of the workload's data")
	put("engine.build_s", on.buildS, "engine construction")

	late := make([]float64, len(m.stream.samples))
	for i, s := range m.stream.samples {
		late[i] = ms(s.sent - s.due)
	}
	if b.workload != probeRead {
		// Closed loop: lateness is the generator's own gap between an
		// answer and the next request.
		for i := 1; i < len(m.stream.samples); i++ {
			late[i] = ms(m.stream.samples[i].sent - m.stream.samples[i-1].done)
		}
		late = late[1:]
	}
	lt, pct, k, _ := tail(late)
	put("loadgen.late_ms", lt, fmt.Sprintf("median over %d segment(s) of p%.2f, n=%d", k, pct, len(late)))
	put("loadgen.cpu_s", m.stream.cpu.Seconds(), fmt.Sprintf("over %.2fs of stream", m.stream.wall.Seconds()))
	put("trace.overhead_pct", 100*(on.wall.Seconds()-off.wall.Seconds())/off.wall.Seconds(),
		fmt.Sprintf("replay %.3fs traced, %.3fs untraced", on.wall.Seconds(), off.wall.Seconds()))

	lat := latencies(m, b.in.ops)
	mut := lat["mutate"]
	var lag []float64
	for _, s := range m.stream.samples {
		if s.lag > 0 {
			lag = append(lag, ms(s.lag))
		}
	}
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"e2e.mutate", mut}, {"e2e.replica_lag", lag}} {
		if len(x.xs) == 0 {
			put(x.name+"_p50_ms", 0, "no such operation in this workload")
			put(x.name+"_tail_ms", 0, "no such operation in this workload")
			continue
		}
		setLatency(res, perLayer, x.name, x.xs)
	}
	maxRate, note := 0.0, "open-loop ladder runs on probe-read only"
	if len(m.ladder) > 0 {
		note = ""
		for _, st := range m.ladder {
			note += fmt.Sprintf("%.0f/s: tail %.2fms late %.2fms; ", st.rate, st.tailMs, st.lateMs)
			if st.meets() {
				maxRate = st.rate
			}
		}
		note += fmt.Sprintf("limit %.0fms", ladderLimitMs)
	}
	put("e2e.max_rate_rps", maxRate, note)
	put("e2e.error_rate", safeDiv(float64(res.Failed), float64(res.Attempted)), fmt.Sprintf("%d of %d", res.Failed, res.Attempted))
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
