package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 5.5}, [3]float64{2.2, 3.1, 5.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := quantiles(c.xs)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func TestPairVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // IQR ≈ 2
	wide := []float64{100, 140, 70, 100, 130, 75, 100, 125, 80, 100}   // IQR ≈ 0.5 of median
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
	}{
		{"clear gain", parent, scaled(parent, 0.9), true, 0.1, improved},
		{"gain on a higher-is-better metric", parent, scaled(parent, 1.1), false, 0.1, improved},
		{"noise within the bound", parent, []float64{101, 100, 100, 99, 101, 99, 101, 100, 100, 101}, true, 0.1, noWorse},
		{"small loss within the bound", parent, scaled(parent, 1.05), true, 0.1, noWorse},
		{"loss beyond the bound", parent, scaled(parent, 1.2), true, 0.1, worse},
		{"wins 8 of 10 only", parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 105, 106}, true, 0.1, noWorse},
		{"spread wider than the bound", wide, scaled(wide, 1.15), true, 0.1, unresolved},
		{"wide spread, every change run worse", wide, scaled(wide, 3), true, 0.1, worse},
		{"no bound, clear loss", parent, scaled(parent, 1.2), true, 0, worse},
		{"no bound, no clear result", parent, parent, true, 0, unresolved},
	} {
		if got := pairVerdict(c.parent, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	spec := benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"latency_ms", "lower", 0.1})
	rec := func(wl string, v float64, failed int) runRecord {
		var r runRecord
		r.Workload = wl
		r.Result.Attempted, r.Result.Failed = 100, failed
		r.Result.Metrics = map[string]metricValue{"latency_ms": {Value: v, Unit: "ms"}}
		return r
	}
	var parent, change []runRecord
	for i := 0; i < 10; i++ {
		parent = append(parent, rec("a", 10+float64(i%3)*0.1, 0), rec("b", 10+float64(i%3)*0.1, 0))
		change = append(change, rec("a", 8+float64(i%3)*0.1, 0), rec("b", 13+float64(i%3)*0.1, 1))
	}
	var out bytes.Buffer
	if n := compare(&out, spec, parent, change); n != 1 {
		t.Errorf("compare reported %d worse rows, want 1", n)
	}
	text := out.String()
	for _, want := range []string{"a                  latency_ms                     improved", "b                  latency_ms                     worse", "parent 0/1000 change 10/1000"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}
