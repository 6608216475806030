package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one run in a result set: the workload and seed it ran
// and the result line it printed.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	} `json:"result"`
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// verdict outcomes, per the choosing-metrics rule.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	unresolved = "unresolved"
	worse      = "worse"
)

// quantiles matches Python's statistics.quantiles(xs, n=4) with the
// default exclusive method; it needs at least two values.
func quantiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return out
}

// pairVerdict compares paired parent and change values of one metric.
// lower says whether lower is better; bound is the allowed regression
// share (0: the metric has none).
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ, in the change's favour, by more
//     than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more
//     than the bound — when the parent's own spread exceeds the bound,
//     only if every change run reads worse than every parent run;
//   - unresolved: the parent's spread exceeds the bound and neither
//     holds (or, without a bound, the change is not a clear loss);
//   - no-worse: otherwise.
func pairVerdict(parent, change []float64, lower bool, bound float64) string {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	if n < 2 {
		return unresolved
	}
	better := func(c, p float64) bool { return isBetter(c, p, lower) }
	wins, losses := countWins(parent, change, lower), countWins(change, parent, lower)
	mp, mc := median(parent), median(change)
	q := quantiles(parent)
	iqr := q[2] - q[0]
	diff := math.Abs(mc - mp)
	if 10*wins >= 9*n && better(mc, mp) && diff > iqr {
		return improved
	}
	allWorse := true
	for _, c := range change {
		for _, p := range parent {
			if !better(p, c) {
				allWorse = false
			}
		}
	}
	if bound == 0 {
		if 10*losses >= 9*n && better(mp, mc) && diff > iqr {
			return worse
		}
		return unresolved
	}
	regressed := better(mp, mc) && diff > bound*math.Abs(mp)
	if mp != 0 && iqr/math.Abs(mp) > bound {
		if regressed && allWorse {
			return worse
		}
		return unresolved
	}
	if regressed {
		return worse
	}
	return noWorse
}

func isBetter(c, p float64, lower bool) bool {
	if lower {
		return c < p
	}
	return c > p
}

// countWins counts the pairs in which change reads better than parent.
func countWins(parent, change []float64, lower bool) int {
	n := 0
	for i := range parent {
		if isBetter(change[i], parent[i], lower) {
			n++
		}
	}
	return n
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints one row per workload × metric with its verdict, then
// each workload's failed-operation share on both sides. It returns the
// number of rows judged worse.
func compare(w io.Writer, spec benchSpec, parent, change []runRecord) int {
	type metric struct {
		name  string
		lower bool
		bound float64
	}
	var metrics []metric
	for _, m := range spec.EndToEnd {
		metrics = append(metrics, metric{m.Name, m.Better == "lower", m.Bound})
	}
	for _, m := range spec.PerLayer {
		metrics = append(metrics, metric{m.Name, m.Better == "lower", 0})
	}
	byWorkload := func(rs []runRecord) map[string][]runRecord {
		out := map[string][]runRecord{}
		for _, r := range rs {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return out
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var workloads []string
	for wl := range pw {
		if _, ok := cw[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	failedShare := func(rs []runRecord) string {
		f, a := 0, 0
		for _, r := range rs {
			f += r.Result.Failed
			a += r.Result.Attempted
		}
		return fmt.Sprintf("%d/%d", f, a)
	}
	nWorse := 0
	fmt.Fprintf(w, "%-18s %-30s %-10s %12s %12s %12s %12s %6s\n", "workload", "metric", "verdict", "parent_p50", "parent_iqr", "change_p50", "change_iqr", "wins")
	for _, wl := range workloads {
		for _, m := range metrics {
			var pv, cv []float64
			for i := 0; i < min(len(pw[wl]), len(cw[wl])); i++ {
				p, okp := pw[wl][i].Result.Metrics[m.name]
				c, okc := cw[wl][i].Result.Metrics[m.name]
				if okp && okc {
					pv, cv = append(pv, p.Value), append(cv, c.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			v := pairVerdict(pv, cv, m.lower, m.bound)
			if v == worse {
				nWorse++
			}
			wins := countWins(pv, cv, m.lower)
			var pq, cq [3]float64
			if len(pv) >= 2 {
				pq, cq = quantiles(pv), quantiles(cv)
			}
			fmt.Fprintf(w, "%-18s %-30s %-10s %12.4f %12.4f %12.4f %12.4f %3d/%-2d\n",
				wl, m.name, v, median(pv), pq[2]-pq[0], median(cv), cq[2]-cq[0], wins, len(pv))
		}
		fmt.Fprintf(w, "%-18s %-30s parent %s change %s\n", wl, "failed-ops", failedShare(pw[wl]), failedShare(cw[wl]))
	}
	return nWorse
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	parentPath := fs.String("parent", "", "JSON lines of the parent's runs")
	changePath := fs.String("change", "", "JSON lines of the change's runs")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with metric bounds")
	_ = fs.Parse(args) // ExitOnError
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := readRecords(*parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := readRecords(*changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if compare(os.Stdout, spec, parent, change) > 0 {
		return 1
	}
	return 0
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// pairsMain runs alternating pairs: pair i runs seed base+i on both
// checkouts, the parent first on even pairs and the change first on
// odd ones, appending each result line to <out>/{parent,change}.jsonl.
func pairsMain(args []string) int {
	fs := flag.NewFlagSet("pairs", flag.ExitOnError)
	parentDir := fs.String("parent", "", "checkout of the parent commit")
	changeDir := fs.String("change", "", "checkout of the change")
	workloads := fs.String("workloads", probeRead+","+auditCold+","+ingestReplicated, "comma-separated workloads")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload")
	seed := fs.Int64("seed", 1000, "seed of the first pair")
	seconds := fs.Int("seconds", 10, "run length, the same on both sides")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "directory for parent.jsonl and change.jsonl")
	_ = fs.Parse(args) // ExitOnError
	if *parentDir == "" || *changeDir == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "perfbench pairs: --parent, --change and --out are required")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pairs:", err)
		return 1
	}
	sides := []struct{ name, dir string }{{"parent", *parentDir}, {"change", *changeDir}}
	for _, wl := range strings.Split(*workloads, ",") {
		for i := 0; i < *pairs; i++ {
			s := *seed + int64(i)
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				line, err := runCheckout(sides[k].dir, wl, s, *seconds, *trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench pairs: %s %s seed %d: %v\n", sides[k].name, wl, s, err)
					return 1
				}
				rec := fmt.Sprintf("{\"workload\":%q,\"seed\":%d,\"result\":%s}\n", wl, s, line)
				if err := appendFile(filepath.Join(*out, sides[k].name+".jsonl"), rec); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench pairs:", err)
					return 1
				}
			}
		}
	}
	return 0
}

// runCheckout runs a checkout's benchmark command once and returns its
// result line.
func runCheckout(dir, workload string, seed int64, seconds, trace int) (string, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	return lines[len(lines)-1], nil
}

func appendFile(path, s string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
