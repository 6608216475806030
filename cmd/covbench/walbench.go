package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/persist"
)

// walBenchPoint is one writer count of the group-commit sweep: the
// same workload (each writer appending single rows through a fsyncing
// store) with the commit pipeline on and off.
type walBenchPoint struct {
	Writers int `json:"writers"`
	Appends int `json:"appends"`
	// PerRecordNs: writers take turns (one append in flight at a
	// time), so every append pays its own write+fsync. GroupedNs: the committer batches whatever
	// queued while the previous group was syncing. AppendsPerSync is
	// acknowledged appends per fsync — consecutive appends in a group
	// also coalesce into one WAL record, so this, not framed records,
	// is the sharing factor.
	PerRecordNs    float64 `json:"per_record_append_ns"`
	GroupedNs      float64 `json:"grouped_append_ns"`
	Speedup        float64 `json:"group_commit_speedup"`
	AppendsPerSync float64 `json:"appends_per_fsync"`
}

// walBenchReport is BENCH_wal.json: grouped-vs-per-record fsync
// throughput by writer count, plus replication-lag percentiles for a
// streamed (long-poll wake) versus polled (fixed ticker) follower.
type walBenchReport struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Series     []walBenchPoint `json:"series"`

	// Lag from commit-durable to follower-visible. The polled follower
	// checks on a free-running ticker at PollIntervalMs (commits land
	// at random phase, so expect ~interval/2 at the median); the
	// streamed follower parks in AwaitGeneration and is woken by the
	// commit itself.
	PollIntervalMs   float64 `json:"poll_interval_ms"`
	LagSamples       int     `json:"lag_samples"`
	PolledLagP50Ms   float64 `json:"polled_lag_p50_ms"`
	PolledLagP90Ms   float64 `json:"polled_lag_p90_ms"`
	StreamedLagP50Ms float64 `json:"streamed_lag_p50_ms"`
	StreamedLagP90Ms float64 `json:"streamed_lag_p90_ms"`

	// SummarySpeedup8 surfaces the acceptance ratio (grouped vs
	// per-record at 8 writers) so CI can grep one number.
	SummarySpeedup8 float64 `json:"summary_group_commit_speedup_8w"`
}

// walAppendRun times total/W single-row appends from each of W
// concurrent writers against a fresh fsyncing store, and returns
// ns per acknowledged append plus the fsync (group commit) count.
// With perRecord the writers serialize on a bench-side mutex around
// each Append, so only one request is ever in flight: every append
// forms its own group and pays its own fsync — the per-record
// baseline the grouped run is compared against.
func walAppendRun(ds *dataset.Dataset, writers, total int, perRecord bool) (nsPerOp float64, groups int64) {
	dir, err := os.MkdirTemp("", "covbench-wal-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir, persist.Options{SyncWAL: true})
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	eng := engine.NewFromDataset(ds, engine.Options{})
	if err := store.Attach(eng); err != nil {
		fatal(err)
	}

	perWriter := total / writers
	var turn sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if perRecord {
					turn.Lock()
				}
				err := store.Append([][]uint8{ds.Row((w*perWriter + i) % ds.NumRows())})
				if perRecord {
					turn.Unlock()
				}
				if err != nil {
					fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(writers*perWriter), store.Stats().WALGroupCommits
}

// walLagRun measures commit-to-visible lag over samples commits for
// both follower styles against one shared leader store.
func walLagRun(ds *dataset.Dataset, samples int, pollEvery time.Duration, seed int64) (polled, streamed []time.Duration) {
	dir, err := os.MkdirTemp("", "covbench-wal-lag-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	eng := engine.NewFromDataset(ds, engine.Options{})
	if err := store.Attach(eng); err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	// Polled follower: a free-running ticker, commits at random phase.
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	for i := 0; i < samples; i++ {
		target := store.DurableGeneration() + 1
		t0 := time.Now()
		if err := store.Append([][]uint8{ds.Row(i % ds.NumRows())}); err != nil {
			fatal(err)
		}
		for range ticker.C {
			if store.DurableGeneration() >= target {
				break
			}
		}
		polled = append(polled, time.Since(t0))
		// Decorrelate the next commit from the ticker phase.
		time.Sleep(time.Duration(rng.Int63n(int64(pollEvery))))
	}

	// Streamed follower: park in AwaitGeneration, woken by the commit.
	for i := 0; i < samples; i++ {
		from := store.DurableGeneration()
		var t0 time.Time
		done := make(chan time.Duration, 1)
		parked := make(chan struct{})
		go func() {
			close(parked)
			store.AwaitGeneration(context.Background(), from, 10*time.Second)
			done <- time.Since(t0)
		}()
		<-parked
		t0 = time.Now()
		if err := store.Append([][]uint8{ds.Row(i % ds.NumRows())}); err != nil {
			fatal(err)
		}
		streamed = append(streamed, <-done)
	}
	return polled, streamed
}

func lagPercentile(lags []time.Duration, q float64) float64 {
	sorted := append([]time.Duration(nil), lags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

// walBench regenerates BENCH_wal.json.
func walBench(cfg config) {
	writerCounts := []int{1, 4, 8, 16}
	total := 2048
	lagSamples := 24
	pollEvery := 200 * time.Millisecond
	if cfg.quick {
		total = 768
		lagSamples = 12
	}
	report := walBenchReport{
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		PollIntervalMs: float64(pollEvery.Milliseconds()),
		LagSamples:     lagSamples,
	}

	ds := datagen.AirBnB(2000, 6, cfg.seed)
	for _, w := range writerCounts {
		per, _ := walAppendRun(ds, w, total, true)
		grp, groups := walAppendRun(ds, w, total, false)
		pt := walBenchPoint{
			Writers:     w,
			Appends:     (total / w) * w,
			PerRecordNs: per,
			GroupedNs:   grp,
		}
		if grp > 0 {
			pt.Speedup = per / grp
		}
		if groups > 0 {
			pt.AppendsPerSync = float64(pt.Appends) / float64(groups)
		}
		report.Series = append(report.Series, pt)
		if w == 8 {
			report.SummarySpeedup8 = pt.Speedup
		}
		fmt.Printf("writers=%-3d per-record %9.0f ns/append   grouped %9.0f ns/append   %5.1fx   %.1f appends/fsync\n",
			w, pt.PerRecordNs, pt.GroupedNs, pt.Speedup, pt.AppendsPerSync)
	}

	polled, streamed := walLagRun(ds, lagSamples, pollEvery, cfg.seed+1)
	report.PolledLagP50Ms = lagPercentile(polled, 0.5)
	report.PolledLagP90Ms = lagPercentile(polled, 0.9)
	report.StreamedLagP50Ms = lagPercentile(streamed, 0.5)
	report.StreamedLagP90Ms = lagPercentile(streamed, 0.9)
	fmt.Printf("replication lag over %d commits: polled p50 %.1f ms / p90 %.1f ms (%.0f ms ticker)   streamed p50 %.2f ms / p90 %.2f ms\n",
		lagSamples, report.PolledLagP50Ms, report.PolledLagP90Ms, report.PollIntervalMs,
		report.StreamedLagP50Ms, report.StreamedLagP90Ms)

	f, err := os.Create(cfg.walOut)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", cfg.walOut)

	if cfg.check {
		failed := false
		if report.GoMaxProcs < 4 {
			fmt.Printf("-check: host has GOMAXPROCS=%d < 4; group-commit speedup gate not applicable\n", report.GoMaxProcs)
		} else if report.SummarySpeedup8 < 3 {
			fmt.Printf("-check FAILED: grouped commit %.2fx per-record fsync at 8 writers, want >= 3x\n", report.SummarySpeedup8)
			failed = true
		} else {
			fmt.Printf("-check ok: grouped commit %.1fx per-record fsync at 8 writers\n", report.SummarySpeedup8)
		}
		if maxP50 := report.PollIntervalMs / 10; report.StreamedLagP50Ms > maxP50 {
			fmt.Printf("-check FAILED: streamed lag p50 %.2f ms, want <= %.0f ms (poll interval / 10)\n",
				report.StreamedLagP50Ms, maxP50)
			failed = true
		} else {
			fmt.Printf("-check ok: streamed lag p50 %.2f ms <= %.0f ms\n", report.StreamedLagP50Ms, report.PollIntervalMs/10)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// walBenchSmoke is the reduced-scale run used by the tests.
func walBenchSmoke(dir string) walBenchReport {
	out := filepath.Join(dir, "BENCH_wal.json")
	walBench(config{n: 20000, quick: true, seed: 42, walOut: out})
	var rep walBenchReport
	raw, err := os.ReadFile(out)
	if err != nil {
		fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(err)
	}
	return rep
}
