package persist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitConcurrentAppends hammers the pipeline from many
// goroutines and checks that every acknowledged row survives a
// recovery — group commit must not weaken the ack-means-durable
// contract the single-record path had.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)

	// Sequential appends never share a group: each is its own record,
	// its own group and durable as soon as it is acknowledged.
	const sequential = 5
	for i := 0; i < sequential; i++ {
		if err := s.Append([][]uint8{{uint8(i % 2), 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALRecords != sequential || st.WALGroupRecords != sequential || st.CoalescedAppends != 0 {
		t.Fatalf("sequential appends: records %d, group records %d, coalesced %d; want %d, %d, 0",
			st.WALRecords, st.WALGroupRecords, st.CoalescedAppends, sequential, sequential)
	}
	if st.DurableGeneration != eng.Generation() {
		t.Fatalf("sequential appends: durable generation %d, engine at %d", st.DurableGeneration, eng.Generation())
	}

	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := []uint8{uint8(w % 2), uint8(i % 3), uint8((w + i) % 4)}
				if err := s.Append([][]uint8{row}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	st = s.Stats()
	if st.WALGroupCommits <= 0 || st.WALGroupRecords <= 0 {
		t.Fatalf("pipeline counters not advancing: %+v", st)
	}
	if st.WALGroupRecords < st.WALGroupCommits {
		t.Fatalf("group records %d < group commits %d", st.WALGroupRecords, st.WALGroupCommits)
	}
	if st.DurableGeneration != eng.Generation() {
		t.Fatalf("durable generation %d, engine at %d", st.DurableGeneration, eng.Generation())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEquivalent(t, eng, eng2)
}

// TestGroupCommitPerRequestErrors drives commitGroup directly with a
// mixed batch: a request the engine rejects must hear its own error
// while its groupmates commit, even when they arrived as one
// coalescible append run.
func TestGroupCommitPerRequestErrors(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	base := eng.Generation()

	mk := func(op byte, rows [][]uint8) *commitReq {
		return &commitReq{op: op, rows: rows, errc: make(chan error, 1)}
	}
	good1 := mk(opAppend, [][]uint8{{0, 0, 0}})
	bad := mk(opAppend, [][]uint8{{0, 0}}) // wrong width: engine rejects
	good2 := mk(opAppend, [][]uint8{{1, 1, 1}})
	s.commitGroup([]*commitReq{good1, bad, good2})

	if err := <-good1.errc; err != nil {
		t.Fatalf("good1: %v", err)
	}
	if err := <-bad.errc; err == nil {
		t.Fatal("bad request acknowledged")
	}
	if err := <-good2.errc; err != nil {
		t.Fatalf("good2: %v", err)
	}
	if got := eng.Generation(); got != base+2 {
		t.Fatalf("generation %d, want %d (two applied mutations)", got, base+2)
	}
	// The store must stay healthy: the rejection left no record and no
	// broken state.
	if err := s.Append([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
}

// TestGroupCommitCoalescesConsecutiveAppends pins the log shape: a run
// of consecutive appends becomes one record at one generation, while a
// delete or window change in between splits the run, preserving the
// apply order on replay.
func TestGroupCommitCoalescesConsecutiveAppends(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	base := eng.Generation()

	mk := func(op byte, rows [][]uint8, maxRows int) *commitReq {
		return &commitReq{op: op, rows: rows, maxRows: maxRows, errc: make(chan error, 1)}
	}
	a1 := mk(opAppend, [][]uint8{{0, 0, 0}}, 0)
	a2 := mk(opAppend, [][]uint8{{1, 1, 1}}, 0)
	w := mk(opWindow, nil, 500)
	a3 := mk(opAppend, [][]uint8{{0, 2, 2}}, 0)
	s.commitGroup([]*commitReq{a1, a2, w, a3})
	for _, req := range []*commitReq{a1, a2, w, a3} {
		if err := <-req.errc; err != nil {
			t.Fatal(err)
		}
	}

	// Two appends coalesced + window + append = 3 mutations.
	if got := eng.Generation(); got != base+3 {
		t.Fatalf("generation %d, want %d", got, base+3)
	}
	if st := s.Stats(); st.CoalescedAppends != 1 {
		t.Fatalf("coalesced appends %d, want 1", st.CoalescedAppends)
	}
	data, _, err := s.WALSince(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, complete := DecodeWALStream(data, 3)
	if !complete {
		t.Fatal("torn feed")
	}
	wantOps := []byte{WALOpAppend, WALOpWindow, WALOpAppend}
	if len(recs) != len(wantOps) {
		t.Fatalf("%d records, want %d", len(recs), len(wantOps))
	}
	for i, rec := range recs {
		if rec.Op != wantOps[i] {
			t.Fatalf("record %d op %d, want %d", i, rec.Op, wantOps[i])
		}
		if rec.Gen != base+uint64(i)+1 {
			t.Fatalf("record %d gen %d, want %d", i, rec.Gen, base+uint64(i)+1)
		}
	}
	if len(recs[0].Rows) != 2 {
		t.Fatalf("coalesced record carries %d rows, want 2", len(recs[0].Rows))
	}
}

// TestGroupCommitBrokenStore checks the sticky fail-stop survives the
// pipeline: a WAL write failure after the engine applied must refuse
// every later mutation until a full snapshot re-roots durability.
func TestGroupCommitBrokenStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	defer s.Close()

	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal.f.Close() // sabotage the segment handle
	s.mu.Unlock()
	err := s.Append([][]uint8{{1, 1, 1}})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append on sabotaged WAL: %v", err)
	}
	if err := s.Append([][]uint8{{1, 2, 3}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("store not fail-stopped: %v", err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatalf("append after rescue snapshot: %v", err)
	}
}

// TestAwaitGeneration pins the hub's wake semantics: a commit wakes
// exactly the waiters at or behind the new durable generation, a
// timeout returns promptly, and cancellation frees the parked waiter.
func TestAwaitGeneration(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	// Seed one commit so base ≥ 1 and "a generation behind base" exists.
	if err := s.Append([][]uint8{{1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	base := eng.Generation()

	// Timeout path: no commit arrives, the waiter returns promptly.
	start := time.Now()
	if gen := s.AwaitGeneration(context.Background(), base, 30*time.Millisecond); gen != base {
		t.Fatalf("timeout wait returned gen %d, want %d", gen, base)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout wait blocked %v", elapsed)
	}

	// A waiter behind the watermark returns immediately.
	if gen := s.AwaitGeneration(context.Background(), base-1, time.Hour); gen != base {
		t.Fatalf("satisfied wait returned %d, want %d", gen, base)
	}

	// Two parked waiters: one at the current generation, one a commit
	// ahead. The first commit must wake exactly the first.
	atCh := make(chan uint64, 1)
	aheadCh := make(chan uint64, 1)
	go func() { atCh <- s.AwaitGeneration(context.Background(), base, 10*time.Second) }()
	go func() { aheadCh <- s.AwaitGeneration(context.Background(), base+1, 10*time.Second) }()
	waitForWaiters(t, s, 2)

	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case gen := <-atCh:
		if gen != base+1 {
			t.Fatalf("woken waiter saw gen %d, want %d", gen, base+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit did not wake the waiter behind it")
	}
	select {
	case gen := <-aheadCh:
		t.Fatalf("waiter ahead of the commit woke with gen %d", gen)
	case <-time.After(50 * time.Millisecond):
	}
	waitForWaiters(t, s, 1)

	// The second commit reaches it.
	if err := s.Append([][]uint8{{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case gen := <-aheadCh:
		if gen != base+2 {
			t.Fatalf("second waiter saw gen %d, want %d", gen, base+2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second commit did not wake the remaining waiter")
	}

	// Cancellation frees a parked waiter without a commit.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.AwaitGeneration(ctx, base+2, 10*time.Second); close(done) }()
	waitForWaiters(t, s, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not free the waiter")
	}
	waitForWaiters(t, s, 0)
}

// waitForWaiters polls the FeedWaiters gauge until it reaches n.
func waitForWaiters(t *testing.T, s *Store, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().FeedWaiters == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("feed waiters never reached %d (now %d)", n, s.Stats().FeedWaiters)
}

// TestAppendAsyncPipelines checks the async entry point: a burst of
// unawaited submissions all acknowledge durably and in a replayable
// order.
func TestAppendAsyncPipelines(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)

	const n = 40
	acks := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		acks[i] = s.AppendAsync([][]uint8{{uint8(i % 2), uint8(i % 3), uint8(i % 4)}})
	}
	for i, ch := range acks {
		if err := <-ch; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEquivalent(t, eng, eng2)
}

// TestCloseDrainsPipeline: mutations in flight when Close lands either
// commit durably (ack nil, row recoverable) or are refused — never
// acknowledged and lost.
func TestCloseDrainsPipeline(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)

	const n = 24
	type outcome struct {
		row []uint8
		err error
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := []uint8{uint8(i % 2), uint8(i % 3), uint8(i % 4)}
			results <- outcome{row: row, err: s.Append([][]uint8{row})}
		}(i)
	}
	time.Sleep(time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)

	var acked int
	for r := range results {
		if r.err == nil {
			acked++
		} else if !errors.Is(r.err, ErrUnavailable) {
			t.Fatalf("unexpected error shape: %v", r.err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if total := eng2.Stats().Rows; total < int64(acked) {
		t.Fatalf("recovered %d rows, but %d appends were acknowledged", total, acked)
	}
}
