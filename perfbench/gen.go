package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// opKind is one operation of a workload's stream.
type opKind uint8

const (
	opCoverage opKind = iota
	opMUPs
	opPlan
	opAppend
	opDelete
	opSnapshot
)

// route is the latency family an operation reports under: appends and
// deletes share "mutate".
func (k opKind) route() string {
	return [...]string{"coverage", "mups", "plan", "mutate", "mutate", "snapshot"}[k]
}

// op is one request of the seeded stream. The request bytes are fixed
// at generation time, so the stream a seed yields is byte-identical on
// every run and the server receives nothing else.
type op struct {
	Kind     opKind
	Tenant   int  // index into the workload's tenants
	Follower bool // a read served by the follower instead of the leader
	Patterns []string
	Tau      int64
	Level    int // /mups maxlevel (0 = unbounded) or /plan max_level λ
	Rows     [][]uint8

	method, path string
	body         []byte
}

// tenantData is one dataset a workload serves: the rows the generator
// drew and the bytes covserve loads them from.
type tenantData struct {
	id  string
	ds  *dataset.Dataset
	csv []byte // the CSV a -csv boot reads (and dataset.load_s parses)
}

// inputs is everything one seed generates for a workload.
type inputs struct {
	tenants []tenantData
	ops     []op
	warm    []op // requests that bring the caches warm before timing
}

// mix derives an independent sub-seed, so adding a draw to one input
// never shifts another.
func mix(seed int64, tag string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 0x100000001b3
	}
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int64(h &^ (1 << 63))
}

// airbnbPool is how many times more rows the fixed-shape AirBnB pool
// holds than a workload draws from it.
const airbnbPool = 4

// airbnbRows draws n AirBnB d=13 rows with the run seed from a pool
// whose amenity distribution is fixed by shape. datagen draws a
// dataset's per-amenity popularity from its seed, which moved MUP
// counts by ±10% between seeds; with the shape fixed, every seed
// measures the same workload while the rows still differ.
func airbnbRows(seed int64, shape string, n int) *dataset.Dataset {
	pool := datagen.AirBnB(airbnbPool*n, 13, mix(0, shape))
	return pool.Sample(rand.New(rand.NewSource(mix(seed, shape))), n)
}

// renderCSV writes ds with its value labels; covserve's CSV reader
// codes each column by sorted label, so callers re-read these bytes to
// get the server's codes.
func renderCSV(ds *dataset.Dataset) []byte {
	var b bytes.Buffer
	s := ds.Schema()
	for i := 0; i < s.Dim(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Attr(i).Name)
	}
	b.WriteByte('\n')
	for r := 0; r < ds.NumRows(); r++ {
		for i, v := range ds.Row(r) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s.Attr(i).Values[v])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// serverView re-reads the CSV bytes exactly as covserve does.
func serverView(csv []byte) (*dataset.Dataset, error) {
	return dataset.ReadCSV(bytes.NewReader(csv), dataset.CSVOptions{})
}

// randomPatterns draws n patterns with 1..maxDet deterministic
// attributes over the given cardinalities.
func randomPatterns(rng *rand.Rand, cards []int, n, maxDet int) []string {
	out := make([]string, n)
	for i := range out {
		p := pattern.All(len(cards))
		det := 1 + rng.Intn(maxDet)
		for _, a := range rng.Perm(len(cards))[:det] {
			p[a] = uint8(rng.Intn(cards[a]))
		}
		out[i] = p.String()
	}
	return out
}

// finish fixes an op's HTTP request bytes.
func (o *op) finish(prefix string) {
	switch o.Kind {
	case opCoverage:
		o.method, o.path = "POST", prefix+"/coverage"
		o.body, _ = json.Marshal(map[string]any{"patterns": o.Patterns})
	case opMUPs:
		o.method, o.path = "GET", prefix+"/mups?tau="+strconv.FormatInt(o.Tau, 10)
		if o.Level > 0 {
			o.path += "&maxlevel=" + strconv.Itoa(o.Level)
		}
	case opPlan:
		o.method, o.path = "POST", prefix+"/plan"
		o.body, _ = json.Marshal(map[string]any{"tau": o.Tau, "max_level": o.Level})
	case opAppend, opDelete:
		o.method, o.path = "POST", prefix+"/append"
		if o.Kind == opDelete {
			o.path = prefix + "/delete"
		}
		codes := make([][]int, len(o.Rows))
		for i, r := range o.Rows {
			codes[i] = make([]int, len(r))
			for j, v := range r {
				codes[i][j] = int(v)
			}
		}
		o.body, _ = json.Marshal(map[string]any{"codes": codes})
	case opSnapshot:
		o.method, o.path = "POST", prefix+"/snapshot"
	}
}

// sizes scales a workload: the full sizes the benchmark runs, or the
// toy sizes the tests use.
type sizes struct {
	airbnbRows   int
	bluenileRows int
	tenants      int
}

var fullSize = sizes{airbnbRows: 50000, bluenileRows: 116300, tenants: 4}

// probeRead: four AirBnB d=13 tenants. Most requests are 16-pattern
// coverage batches; the rest are /mups (level ≤ 3) and /plan (λ = 2) at
// the τ the warm-up already cached, so every one is a cache hit.
const (
	probeTau       = 100
	probeMUPLevel  = 3
	probePlanTau   = 5000
	probePlanLevel = 2
	probeBatch     = 16
)

func genProbeRead(seed int64, nOps int, sz sizes) (*inputs, error) {
	in := &inputs{}
	for t := 0; t < sz.tenants; t++ {
		ds := airbnbRows(seed, fmt.Sprintf("tenant%d", t), sz.airbnbRows)
		in.tenants = append(in.tenants, tenantData{id: fmt.Sprintf("t%d", t), ds: ds, csv: renderCSV(ds)})
	}
	cards := in.tenants[0].ds.Cards()
	rng := rand.New(rand.NewSource(mix(seed, "ops")))
	for t := range in.tenants {
		in.warm = append(in.warm,
			op{Kind: opMUPs, Tenant: t, Tau: probeTau, Level: probeMUPLevel},
			op{Kind: opPlan, Tenant: t, Tau: probePlanTau, Level: probePlanLevel})
	}
	for i := 0; i < nOps; i++ {
		o := op{Tenant: rng.Intn(len(in.tenants))}
		switch u := rng.Intn(100); {
		case u < 65:
			o.Kind, o.Patterns = opCoverage, randomPatterns(rng, cards, probeBatch, 4)
		case u < 85:
			o.Kind, o.Tau, o.Level = opMUPs, probeTau, probeMUPLevel
		default:
			o.Kind, o.Tau, o.Level = opPlan, probePlanTau, probePlanLevel
		}
		in.ops = append(in.ops, o)
	}
	for i := range in.warm {
		in.warm[i].finish("/datasets/" + in.tenants[in.warm[i].Tenant].id)
	}
	for i := range in.ops {
		in.ops[i].finish("/datasets/" + in.tenants[in.ops[i].Tenant].id)
	}
	return in, nil
}

// auditCold: BlueNile at the paper's size. Every /mups is unbounded at
// a τ no earlier request used, and every planEvery-th step is a /plan
// at another new τ, so the MUP cache never hits. Each step also probes
// a few coverage batches. The τ values are a
// fixed set the seed only shuffles, keeping the search work equal
// across seeds.
const (
	auditTauBase   = 150
	auditPlanEvery = 2
	auditPlanLevel = 2
	auditBatch     = 16
	auditProbes    = 4 // coverage batches per step
)

func genAuditCold(seed int64, nSteps int, sz sizes) (*inputs, error) {
	raw := datagen.BlueNile(sz.bluenileRows, mix(seed, "bluenile"))
	csv := renderCSV(raw)
	ds, err := serverView(csv)
	if err != nil {
		return nil, err
	}
	in := &inputs{tenants: []tenantData{{id: "default", ds: ds, csv: csv}}}
	rng := rand.New(rand.NewSource(mix(seed, "ops")))
	// Audits take the even τ slots and plans the odd ones, so no two
	// requests share a τ; the seed only orders each fixed set.
	audits := rng.Perm(nSteps)
	plans := rng.Perm(nSteps / auditPlanEvery)
	for i := 0; i < nSteps; i++ {
		in.ops = append(in.ops, op{Kind: opMUPs, Tau: int64(auditTauBase + 2*audits[i])})
		if i%auditPlanEvery == auditPlanEvery-1 {
			tau := int64(auditTauBase + 1 + 2*plans[i/auditPlanEvery])
			in.ops = append(in.ops, op{Kind: opPlan, Tau: tau, Level: auditPlanLevel})
		}
		for k := 0; k < auditProbes; k++ {
			in.ops = append(in.ops, op{Kind: opCoverage, Patterns: randomPatterns(rng, ds.Cards(), auditBatch, 3)})
		}
	}
	// The warm-up is a single coverage probe: it proves the dataset is
	// loaded without caching any MUP set.
	in.warm = []op{{Kind: opCoverage, Patterns: []string{pattern.All(ds.Dim()).String()}}}
	for i := range in.warm {
		in.warm[i].finish("")
	}
	for i := range in.ops {
		in.ops[i].finish("")
	}
	return in, nil
}

// ingestReplicated: a durable AirBnB d=13 leader and one follower. A
// cycle appends a batch of fresh rows, deletes the oldest rows the
// stream appended, reads the warm-τ MUPs on the leader and on the
// follower, and probes coverage; every snapshotEvery-th mutation is a
// POST /snapshot (so the 8-link delta chain compacts within a run) and
// every planEvery-th cycle a /plan, which repairs the cached unbounded
// MUP set behind it.
const (
	ingestAppendRows    = 8
	ingestDeleteRows    = 4
	ingestTau           = 100
	ingestMUPLevel      = 3
	ingestPlanTau       = 5000
	ingestPlanLevel     = 2
	ingestPlanEvery     = 4
	ingestSnapshotEvery = 6
	ingestBatch         = 16
)

func genIngestReplicated(seed int64, nCycles int, sz sizes) (*inputs, error) {
	pool := nCycles * ingestAppendRows
	raw := airbnbRows(seed, "ingest", sz.airbnbRows+pool)
	base := dataset.New(raw.Schema())
	for r := 0; r < sz.airbnbRows; r++ {
		base.MustAppend(raw.Row(r))
	}
	csv := renderCSV(base)
	ds, err := serverView(csv)
	if err != nil {
		return nil, err
	}
	// Sorted-label coding keeps no/yes as 0/1, so the pool rows are
	// already in the server's codes; verify rather than assume.
	for i := 0; i < ds.Dim(); i++ {
		if !slices.Equal(ds.Schema().Attr(i).Values, raw.Schema().Attr(i).Values) {
			return nil, fmt.Errorf("ingest: CSV coding of attribute %d differs from the generator's", i)
		}
	}
	in := &inputs{tenants: []tenantData{{id: "default", ds: ds, csv: csv}}}
	rng := rand.New(rand.NewSource(mix(seed, "ops")))
	next := sz.airbnbRows
	var live [][]uint8 // appended rows not yet deleted, oldest first
	mutations := 0
	mutate := func(o op) {
		in.ops = append(in.ops, o)
		mutations++
		if mutations%ingestSnapshotEvery == 0 {
			in.ops = append(in.ops, op{Kind: opSnapshot})
		}
	}
	for c := 0; c < nCycles; c++ {
		rows := make([][]uint8, ingestAppendRows)
		for i := range rows {
			rows[i] = append([]uint8(nil), raw.Row(next)...)
			next++
		}
		live = append(live, rows...)
		mutate(op{Kind: opAppend, Rows: rows})
		mutate(op{Kind: opDelete, Rows: live[:ingestDeleteRows:ingestDeleteRows]})
		live = live[ingestDeleteRows:]
		in.ops = append(in.ops,
			op{Kind: opMUPs, Tau: ingestTau, Level: ingestMUPLevel},
			op{Kind: opMUPs, Tau: ingestTau, Level: ingestMUPLevel, Follower: true},
			op{Kind: opCoverage, Patterns: randomPatterns(rng, ds.Cards(), ingestBatch, 4)})
		if c%ingestPlanEvery == ingestPlanEvery-1 {
			in.ops = append(in.ops, op{Kind: opPlan, Tau: ingestPlanTau, Level: ingestPlanLevel})
		}
	}
	in.warm = []op{
		{Kind: opMUPs, Tau: ingestTau, Level: ingestMUPLevel},
		{Kind: opMUPs, Tau: ingestTau, Level: ingestMUPLevel, Follower: true},
		{Kind: opPlan, Tau: ingestPlanTau, Level: ingestPlanLevel},
	}
	for i := range in.warm {
		in.warm[i].finish("")
	}
	for i := range in.ops {
		in.ops[i].finish("")
	}
	return in, nil
}
