package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/mup"
	"coverage/internal/pattern"
	"coverage/internal/registry"
)

// registryBenchResult is one measured workload in BENCH_registry.json.
type registryBenchResult struct {
	Name        string  `json:"name"`
	Workload    string  `json:"workload"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// registryBenchReport is the machine-readable multi-tenant tracker:
// the per-request costs the dataset registry adds on top of a bare
// engine — leasing a warm tenant, full park/restore round trips, and
// tenant create/drop — so the tenancy tax can be diffed across
// commits.
type registryBenchReport struct {
	GoMaxProcs    int                   `json:"gomaxprocs"`
	GoVersion     string                `json:"go_version"`
	Tenants       int                   `json:"tenants"`
	RowsPerTenant int                   `json:"rows_per_tenant"`
	Results       []registryBenchResult `json:"results"`
}

// registryBenchReps is the min-of-reps count per cell; the smoke test
// lowers it.
var registryBenchReps = 3

// registryBench regenerates BENCH_registry.json.
func registryBench(cfg config) {
	n := cfg.n / 20
	if n > 5000 {
		n = 5000
	}
	if n < 500 {
		n = 500
	}
	const tenants = 4
	ds := datagen.AirBnB(n, 8, cfg.seed)
	rows := make([][]uint8, ds.NumRows())
	for i := range rows {
		rows[i] = ds.Row(i)
	}

	report := registryBenchReport{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Tenants:       tenants,
		RowsPerTenant: n,
	}
	bench := func(f func(b *testing.B)) testing.BenchmarkResult {
		best := testing.Benchmark(f)
		for i := 1; i < registryBenchReps; i++ {
			if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}
	add := func(workload string, r testing.BenchmarkResult) {
		res := registryBenchResult{
			Name:        "registry/" + workload,
			Workload:    workload,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-30s %12.0f ns/op %8d allocs/op %10d B/op  (%d iterations)\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, r.N)
	}

	dir, err := os.MkdirTemp("", "covbench-registry-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	// Warm registry: tenants stay resident; the lease is the only tax.
	warm, err := registry.Open(registry.Options{Dir: dir + "/warm"})
	if err != nil {
		fatal(err)
	}
	defer warm.Close()
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%d", i)
		if _, err := warm.Ensure(ids[i], ds.Schema(), registry.TenantOptions{}); err != nil {
			fatal(err)
		}
		h, err := warm.Acquire(ids[i])
		if err != nil {
			fatal(err)
		}
		if err := h.Store().Append(rows); err != nil {
			fatal(err)
		}
		h.Release()
	}

	add("acquire-release", bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := warm.Acquire(ids[i%tenants])
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
	}))

	// One coverage probe through a lease, round-robin over the resident
	// tenants: the per-request path of a warm multi-tenant gateway.
	probe := pattern.Pattern(rows[0])
	add("lease-probe", bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := warm.Acquire(ids[i%tenants])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Engine().Coverage(probe); err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
	}))

	// A full MUP search through the shared worker pool (the gateway's
	// slot acquisition included).
	tau := int64(0.001 * float64(n))
	if tau < 2 {
		tau = 2
	}
	add("lease-mup-search", bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := warm.Acquire(ids[i%tenants])
			if err != nil {
				b.Fatal(err)
			}
			release, err := warm.Pool().Acquire(b.Context(), h.SearchWeight())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Engine().MUPs(mup.Options{Threshold: tau}); err != nil {
				b.Fatal(err)
			}
			release()
			h.Release()
		}
	}))

	// Cold registry: a 1-byte resident budget parks the tenant on every
	// release, so each iteration pays a full restore (open + recover)
	// and a park (close; the state is clean after the first snapshot).
	cold, err := registry.Open(registry.Options{Dir: dir + "/cold", MaxResidentBytes: 1})
	if err != nil {
		fatal(err)
	}
	defer cold.Close()
	if _, err := cold.Ensure("parked", ds.Schema(), registry.TenantOptions{}); err != nil {
		fatal(err)
	}
	h, err := cold.Acquire("parked")
	if err != nil {
		fatal(err)
	}
	if err := h.Store().Append(rows); err != nil {
		fatal(err)
	}
	h.Release() // first park pays the snapshot; timed cycles are clean
	add("park-restore", bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := cold.Acquire("parked")
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
	}))

	// Tenant lifecycle: create a persistent empty tenant, drop it.
	life, err := registry.Open(registry.Options{Dir: dir + "/life"})
	if err != nil {
		fatal(err)
	}
	defer life.Close()
	add("create-drop", bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := life.Ensure("ephemeral", ds.Schema(), registry.TenantOptions{}); err != nil {
				b.Fatal(err)
			}
			if err := life.Drop("ephemeral"); err != nil {
				b.Fatal(err)
			}
		}
	}))

	f, err := os.Create(cfg.registryOut)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", cfg.registryOut)
}
