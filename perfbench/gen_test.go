package main

import (
	"bytes"
	"fmt"
	"testing"
)

var toySize = sizes{airbnbRows: 2000, bluenileRows: 3000, tenants: 2}

func generateToy(t *testing.T, workload string, seed int64) *inputs {
	t.Helper()
	var in *inputs
	var err error
	switch workload {
	case probeRead:
		in, err = genProbeRead(seed, 200, toySize)
	case auditCold:
		in, err = genAuditCold(seed, 10, toySize)
	case ingestReplicated:
		in, err = genIngestReplicated(seed, 20, toySize)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// encodeStream is the canonical byte form of a stream: every request
// line and body in order, with the target each read goes to.
func encodeStream(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		target := "leader"
		if o.Follower {
			target = "follower"
		}
		fmt.Fprintf(&b, "%s %s %s %d\n%s\n", target, o.method, o.path, len(o.body), o.body)
	}
	return b.Bytes()
}

// inputBytes is everything a seed makes covserve receive: the datasets
// and the operation stream, warm-up included.
func inputBytes(in *inputs) []byte {
	var b bytes.Buffer
	for _, t := range in.tenants {
		b.WriteString(t.id + "\n")
		b.Write(t.csv)
	}
	b.Write(encodeStream(in.warm))
	b.Write(encodeStream(in.ops))
	return b.Bytes()
}

func TestSeedFixesInputs(t *testing.T) {
	for _, wl := range []string{probeRead, auditCold, ingestReplicated} {
		t.Run(wl, func(t *testing.T) {
			a := inputBytes(generateToy(t, wl, 7))
			b := inputBytes(generateToy(t, wl, 7))
			if !bytes.Equal(a, b) {
				t.Fatal("one seed produced two different input streams")
			}
			if c := inputBytes(generateToy(t, wl, 8)); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 produced the same input stream")
			}
		})
	}
}

func TestStreamLengthIsFixed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		if n := len(generateToy(t, ingestReplicated, seed).ops); n != len(generateToy(t, ingestReplicated, 1).ops) {
			t.Fatalf("seed %d: %d ops, seed 1 has a different count", seed, n)
		}
	}
}
