package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// buildCovserve compiles the covserve this module replaces in.
func buildCovserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "covserve")
	if out, err := exec.Command("go", "build", "-o", bin, "coverage/cmd/covserve").CombinedOutput(); err != nil {
		t.Fatalf("building covserve: %v\n%s", err, out)
	}
	return bin
}

// With one client, two runs of one seed must move every server counter
// by exactly the same amount.
func TestCounterDeltasRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots covserve subprocesses")
	}
	bin := buildCovserve(t)
	for _, wl := range []string{probeRead, auditCold, ingestReplicated} {
		t.Run(wl, func(t *testing.T) {
			var deltas []counters
			for run := 0; run < 2; run++ {
				b := &bench{workload: wl, bin: bin, seed: 3, seconds: 1, sz: toySize, clients: 1, work: t.TempDir()}
				if err := b.generate(); err != nil {
					t.Fatal(err)
				}
				m, err := b.measure(context.Background(), 1, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, err := range m.checks {
					t.Error(err)
				}
				for i, s := range m.stream.samples {
					if s.failed() {
						t.Errorf("op %d failed: %v", i, s.failure())
					}
				}
				deltas = append(deltas, m.delta)
			}
			if !reflect.DeepEqual(deltas[0], deltas[1]) {
				t.Errorf("counter deltas differ across runs of one seed:\n%v\n%v", deltas[0], deltas[1])
			}
			moved := false
			for _, v := range deltas[0] {
				moved = moved || v != 0
			}
			if !moved {
				t.Error("no counter moved")
			}
		})
	}
}
