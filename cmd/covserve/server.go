package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coverage"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// serverConfig carries the per-tenant knobs a registry-managed server
// runs under. The zero value — used by the legacy single-dataset
// constructor — means no admission budget, no shared search pool and
// the package-default body caps.
type serverConfig struct {
	// budget admission-controls search-class requests (nil =
	// unlimited); pool caps cross-tenant search parallelism (nil = no
	// cap) and weight is how many slots this tenant's searches take.
	budget *registry.Budget
	pool   *registry.Pool
	weight int
	// maxBody / maxStream override the JSON and NDJSON body caps
	// (0 = the package defaults).
	maxBody   int64
	maxStream int64
}

// server wires the coverage analyzer's engine into HTTP handlers. All
// endpoints are safe for concurrent use: reads take the engine's read
// lock and appends its write lock. With a persist.Store attached,
// every mutation is written to the write-ahead log before it is
// acknowledged, and POST /snapshot is exposed.
type server struct {
	an    *coverage.Analyzer
	store *persist.Store // nil when running without -data-dir
	cfg   serverConfig
	mux   *http.ServeMux
	// replica, when set, contributes the replication section of
	// /stats — a WAL-tailing follower installs it; leaders leave it
	// nil.
	replica func() *replicaJSON
	// topo tracks followers seen on the WAL feed (identified by their
	// X-Replica-ID header) for GET /topology; built only with a store.
	topo *topology
}

func newServer(an *coverage.Analyzer, store *persist.Store) *server {
	return newServerWith(an, store, serverConfig{})
}

func newServerWith(an *coverage.Analyzer, store *persist.Store, cfg serverConfig) *server {
	s := &server{an: an, store: store, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /coverage", s.handleCoverage)
	s.mux.HandleFunc("GET /mups", s.handleMUPs)
	s.mux.HandleFunc("POST /append", s.handleAppend)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("GET /window", s.handleWindowGet)
	s.mux.HandleFunc("POST /window", s.handleWindowSet)
	s.mux.HandleFunc("POST /plan", s.handlePlan)
	if store != nil {
		// These endpoints exist only when the server is durable; without
		// -data-dir there is nothing to snapshot or replicate and the
		// routes 404. /wal and /chain are the replication feed: a
		// follower bootstraps from the snapshot chain and then tails the
		// write-ahead log.
		s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
		s.mux.HandleFunc("GET /wal", s.handleWALFeed)
		s.mux.HandleFunc("GET /chain", s.handleChainList)
		s.mux.HandleFunc("GET /chain/{name}", s.handleChainFile)
		s.topo = newTopology()
		s.mux.HandleFunc("GET /topology", s.handleTopology)
	}
	return s
}

// appendRows, deleteRows and setWindow route mutations through the
// durable store when one is attached, so the WAL sees every mutation
// in apply order; otherwise they hit the engine directly.
func (s *server) appendRows(rows [][]uint8) error {
	if s.store != nil {
		return s.store.Append(rows)
	}
	return s.an.Append(rows)
}

func (s *server) deleteRows(rows [][]uint8) error {
	if s.store != nil {
		return s.store.Delete(rows)
	}
	return s.an.Delete(rows)
}

func (s *server) setWindow(maxRows int) error {
	if s.store != nil {
		return s.store.SetWindow(maxRows)
	}
	s.an.SetWindow(maxRows)
	return nil
}

// mutationStatus maps a mutation error to its HTTP status: a durable
// store that cannot log (disk full, tripped fail-stop) is the
// server's fault — 503, retryable — never the client's; any other
// error keeps the handler's own client-fault status.
func mutationStatus(err error, clientStatus int) int {
	if errors.Is(err, persist.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return clientStatus
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxRequestBytes caps JSON request bodies; oversized appends should
// be split into batches, not buffered wholesale.
const maxRequestBytes = 8 << 20

// bodyLimit and streamLimit are the effective per-server caps.
func (s *server) bodyLimit() int64 {
	if s.cfg.maxBody > 0 {
		return s.cfg.maxBody
	}
	return maxRequestBytes
}

func (s *server) streamLimit() int64 {
	if s.cfg.maxStream > 0 {
		return s.cfg.maxStream
	}
	return maxStreamBytes
}

// bodyStatus distinguishes "you sent too much" from "you sent
// garbage": a tripped MaxBytesReader is 413, anything else 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// admit charges the tenant's search budget; on exhaustion it writes
// the 429 with a Retry-After and reports false.
func (s *server) admit(w http.ResponseWriter) bool {
	retry, ok := s.cfg.budget.Take()
	if ok {
		return true
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("dataset search budget exhausted; retry in %ds", secs))
	return false
}

// acquireSlots takes the tenant's weight from the shared search pool,
// blocking while other tenants' searches drain. A client that
// disconnects while queued gets the usual 499.
func (s *server) acquireSlots(w http.ResponseWriter, r *http.Request) (func(), bool) {
	release, err := s.cfg.pool.Acquire(r.Context(), s.cfg.weight)
	if err != nil {
		writeError(w, statusClientClosedRequest, fmt.Errorf("canceled while queued for search slots: %w", err))
		return nil, false
	}
	return release, true
}

type healthResponse struct {
	Status string `json:"status"`
	Rows   int64  `json:"rows"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Rows: s.an.NumRows()})
}

type statsResponse struct {
	Rows           int64  `json:"rows"`
	Distinct       int    `json:"distinct_combinations"`
	DeltaDistinct  int    `json:"delta_combinations"`
	Generation     uint64 `json:"generation"`
	Appends        int64  `json:"appends"`
	Deletes        int64  `json:"deletes"`
	Evictions      int64  `json:"window_evictions"`
	Compactions    int64  `json:"compactions"`
	FullSearches   int64  `json:"full_searches"`
	Repairs        int64  `json:"incremental_repairs"`
	BidirRepairs   int64  `json:"bidirectional_repairs"`
	CacheHits      int64  `json:"cache_hits"`
	CachedSearches int    `json:"cached_searches"`
	// Window is the sliding-window configuration: the maximum number
	// of live rows (0 = unbounded) and the count of deleted rows whose
	// window-log entries are still awaiting reconciliation.
	Window     int   `json:"window_max_rows"`
	Tombstones int64 `json:"window_tombstones"`
	// ShardCount is the number of shard cores the combo space is
	// hash-partitioned across; Shards holds one counter block per
	// core.
	ShardCount int         `json:"shard_count"`
	Shards     []shardJSON `json:"shards"`
	// PlanCache reports the incremental remediation planner.
	PlanCache planCacheJSON `json:"plan_cache"`
	// Persist reports the durability layer; absent without -data-dir.
	Persist *persistStats `json:"persist,omitempty"`
	// Replica reports the WAL-tailing follower loop; absent on leaders.
	Replica *replicaJSON `json:"replica,omitempty"`
}

// replicaJSON is the replication section of a follower's /stats: where
// it follows, how far behind it stands and how the tailing loop has
// fared.
type replicaJSON struct {
	Leader           string `json:"leader"`
	ReplicaID        string `json:"replica_id,omitempty"`
	LocalGeneration  uint64 `json:"local_generation"`
	LeaderGeneration uint64 `json:"leader_generation"`
	GenerationLag    uint64 `json:"generation_lag"`
	AppliedRecords   int64  `json:"applied_records"`
	Polls            int64  `json:"polls"`
	// StreamedPolls counts feed requests the leader long-polled
	// (honored our wait parameter); LongPolling reports whether the
	// last contact was one.
	StreamedPolls int64  `json:"streamed_polls"`
	LongPolling   bool   `json:"long_polling"`
	Resyncs       int64  `json:"resyncs"`
	LastError     string `json:"last_error,omitempty"`
}

// planCacheJSON is the remediation-plan cache section of /stats:
// probes and hits against the cache, plus how each non-hit was
// answered — a from-scratch build, a target-set repair that kept the
// cached plan (zero greedy work), or a seeded greedy rebuild.
type planCacheJSON struct {
	Probes        int64 `json:"probes"`
	Hits          int64 `json:"hits"`
	Builds        int64 `json:"builds"`
	TargetRepairs int64 `json:"target_repairs"`
	Rebuilds      int64 `json:"seeded_rebuilds"`
	CachedPlans   int   `json:"cached_plans"`
}

// shardJSON is one shard core's counters on /stats. The store block
// reports the count-store layout the core resolved to ("map", "flat"
// or "dense"), its slot-fill ratio (0 for the slotless map) and the
// resident bytes of its backing arrays.
type shardJSON struct {
	Rows           int64   `json:"rows"`
	Distinct       int     `json:"distinct_combinations"`
	DeltaDistinct  int     `json:"delta_combinations"`
	Compactions    int64   `json:"compactions"`
	Store          string  `json:"store"`
	StoreOccupancy float64 `json:"store_occupancy"`
	StoreBytes     int64   `json:"store_bytes"`
}

// persistStats is the durability section of /stats.
type persistStats struct {
	DataDir                string `json:"data_dir"`
	Snapshots              int64  `json:"snapshots"`
	LastSnapshotGeneration uint64 `json:"last_snapshot_generation"`
	LastSnapshotBytes      int64  `json:"last_snapshot_bytes"`
	WALRecords             int64  `json:"wal_records"`
	WALBytes               int64  `json:"wal_bytes"`
	// RecoveredSnapshotGeneration and ReplayedWALRecords describe this
	// process's boot; TornWALTailDropped reports whether a torn record
	// from the previous crash was truncated away.
	RecoveredSnapshotGeneration uint64 `json:"recovered_snapshot_generation"`
	ReplayedWALRecords          int64  `json:"replayed_wal_records"`
	TornWALTailDropped          bool   `json:"torn_wal_tail_dropped"`
	// DeltaSnapshots counts snapshots written as deltas against the
	// previous one; DeltaChainLength is how many deltas currently
	// stack on the newest full image.
	DeltaSnapshots   int64 `json:"delta_snapshots"`
	DeltaChainLength int   `json:"delta_chain_length"`
	// The commit pipeline: coalesced write+fsync calls, the records
	// they carried (records ÷ commits = group size), append requests
	// merged into a groupmate's engine batch, the newest durably
	// logged generation, and feed long-pollers currently parked on
	// the commit hub.
	WALGroupCommits   int64  `json:"wal_group_commits"`
	WALGroupRecords   int64  `json:"wal_grouped_records"`
	CoalescedAppends  int64  `json:"coalesced_appends"`
	DurableGeneration uint64 `json:"durable_generation"`
	FeedWaiters       int64  `json:"feed_waiters"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.an.Engine().Stats()
	resp := statsResponse{
		Rows:           st.Rows,
		Distinct:       st.Distinct,
		DeltaDistinct:  st.DeltaDistinct,
		Generation:     st.Generation,
		Appends:        st.Appends,
		Deletes:        st.Deletes,
		Evictions:      st.Evictions,
		Compactions:    st.Compactions,
		FullSearches:   st.FullSearches,
		Repairs:        st.Repairs,
		BidirRepairs:   st.BidirectionalRepairs,
		CacheHits:      st.CacheHits,
		CachedSearches: st.CachedSearches,
		Window:         st.Window,
		Tombstones:     st.Tombstones,
		ShardCount:     st.ShardCount,
		Shards:         make([]shardJSON, len(st.Shards)),
		PlanCache: planCacheJSON{
			Probes:        st.PlanProbes,
			Hits:          st.PlanHits,
			Builds:        st.PlanBuilds,
			TargetRepairs: st.PlanRepairs,
			Rebuilds:      st.PlanRebuilds,
			CachedPlans:   st.CachedPlans,
		},
	}
	for i, sh := range st.Shards {
		resp.Shards[i] = shardJSON{
			Rows:           sh.Rows,
			Distinct:       sh.Distinct,
			DeltaDistinct:  sh.DeltaDistinct,
			Compactions:    sh.Compactions,
			Store:          sh.Store,
			StoreOccupancy: sh.StoreOccupancy,
			StoreBytes:     sh.StoreBytes,
		}
	}
	if s.store != nil {
		ps := s.store.Stats()
		resp.Persist = &persistStats{
			DataDir:                     ps.Dir,
			Snapshots:                   ps.Snapshots,
			LastSnapshotGeneration:      ps.LastSnapshotGeneration,
			LastSnapshotBytes:           ps.LastSnapshotBytes,
			WALRecords:                  ps.WALRecords,
			WALBytes:                    ps.WALBytes,
			RecoveredSnapshotGeneration: ps.RecoveredSnapshotGeneration,
			ReplayedWALRecords:          ps.ReplayedRecords,
			TornWALTailDropped:          ps.TornTailDropped,
		}
		resp.Persist.DeltaSnapshots = ps.DeltaSnapshots
		resp.Persist.DeltaChainLength = ps.DeltaChainLength
		resp.Persist.WALGroupCommits = ps.WALGroupCommits
		resp.Persist.WALGroupRecords = ps.WALGroupRecords
		resp.Persist.CoalescedAppends = ps.CoalescedAppends
		resp.Persist.DurableGeneration = ps.DurableGeneration
		resp.Persist.FeedWaiters = ps.FeedWaiters
	}
	if s.replica != nil {
		resp.Replica = s.replica()
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshotResponse reports the outcome of an on-demand snapshot.
type snapshotResponse struct {
	// Skipped is true when the engine has not mutated since the last
	// snapshot, so none was written.
	Skipped    bool    `json:"skipped,omitempty"`
	Generation uint64  `json:"generation"`
	Bytes      int64   `json:"bytes,omitempty"`
	DurationMs float64 `json:"duration_ms,omitempty"`
}

// handleSnapshot triggers an immediate snapshot + WAL rotation. It is
// registered only when the server runs with -data-dir.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	res, err := s.store.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Skipped:    res.Skipped,
		Generation: res.Generation,
		Bytes:      res.Bytes,
		DurationMs: float64(res.Duration.Microseconds()) / 1000,
	})
}

// coverageRequest is a batch of pattern probes in the compact notation
// ("X1X0", "[12]XX"). Threshold, when positive, additionally reports
// whether each pattern is covered.
type coverageRequest struct {
	Patterns  []string `json:"patterns"`
	Threshold int64    `json:"threshold,omitempty"`
}

type patternCoverage struct {
	Pattern     string `json:"pattern"`
	Description string `json:"description"`
	Coverage    int64  `json:"coverage"`
	Covered     *bool  `json:"covered,omitempty"`
}

type coverageResponse struct {
	Rows    int64             `json:"rows"`
	Results []patternCoverage `json:"results"`
}

func (s *server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req coverageRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Patterns) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("patterns must be non-empty"))
		return
	}
	if !s.admit(w) {
		return
	}
	schema := s.an.Dataset().Schema()
	ps := make([]coverage.Pattern, len(req.Patterns))
	for i, raw := range req.Patterns {
		p, err := coverage.ParsePattern(raw, schema)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ps[i] = p
	}
	covs, err := s.an.Engine().CoverageBatch(ps)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := coverageResponse{Rows: s.an.NumRows(), Results: make([]patternCoverage, len(ps))}
	for i, p := range ps {
		pc := patternCoverage{Pattern: p.String(), Description: schema.DescribePattern(p), Coverage: covs[i]}
		if req.Threshold > 0 {
			covered := covs[i] >= req.Threshold
			pc.Covered = &covered
		}
		resp.Results[i] = pc
	}
	writeJSON(w, http.StatusOK, resp)
}

type mupJSON struct {
	Pattern     string `json:"pattern"`
	Level       int    `json:"level"`
	Description string `json:"description"`
}

type mupsResponse struct {
	Rows      int64     `json:"rows"`
	Threshold int64     `json:"threshold"`
	TotalMUPs int       `json:"total_mups"`
	MUPs      []mupJSON `json:"mups"`
	Algorithm string    `json:"algorithm"`
	Probes    int64     `json:"coverage_probes"`
}

// queryFindOptions parses tau= / rate= / maxlevel= query parameters.
func queryFindOptions(r *http.Request) (coverage.FindOptions, error) {
	var opts coverage.FindOptions
	q := r.URL.Query()
	if v := q.Get("tau"); v != "" {
		tau, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad tau %q: %w", v, err)
		}
		opts.Threshold = tau
	}
	if v := q.Get("rate"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return opts, fmt.Errorf("bad rate %q: %w", v, err)
		}
		opts.ThresholdRate = rate
	}
	if v := q.Get("maxlevel"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad maxlevel %q: %w", v, err)
		}
		if l < 0 {
			return opts, fmt.Errorf("bad maxlevel %d: must be ≥ 0 (0 means unbounded)", l)
		}
		opts.MaxLevel = l
	}
	return opts, nil
}

func (s *server) handleMUPs(w http.ResponseWriter, r *http.Request) {
	opts, err := queryFindOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w) {
		return
	}
	release, ok := s.acquireSlots(w, r)
	if !ok {
		return
	}
	defer release()
	rep, err := s.an.FindMUPs(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := mupsResponse{
		Rows:      s.an.NumRows(),
		Threshold: rep.Threshold,
		TotalMUPs: len(rep.MUPs),
		MUPs:      make([]mupJSON, 0, len(rep.MUPs)),
		Algorithm: rep.Stats.Algorithm,
		Probes:    rep.Stats.CoverageProbes,
	}
	for i, p := range rep.MUPs {
		resp.MUPs = append(resp.MUPs, mupJSON{Pattern: p.String(), Level: p.Level(), Description: rep.Describe(i)})
	}
	writeJSON(w, http.StatusOK, resp)
}

// mutateRequest carries rows to append or delete, either as value
// labels resolved against the schema ("rows") or as raw value codes
// ("codes"). The two forms may be mixed in one request.
type mutateRequest struct {
	Rows  [][]string `json:"rows,omitempty"`
	Codes [][]uint8  `json:"codes,omitempty"`
}

type mutateResponse struct {
	Appended   int    `json:"appended,omitempty"`
	Deleted    int    `json:"deleted,omitempty"`
	TotalRows  int64  `json:"total_rows"`
	Generation uint64 `json:"generation"`
}

// rowFromLabels resolves one row of value labels to codes.
func (s *server) rowFromLabels(n int, labels []string) ([]uint8, error) {
	schema := s.an.Dataset().Schema()
	if len(labels) != schema.Dim() {
		return nil, fmt.Errorf("row %d has %d values, schema has %d attributes", n, len(labels), schema.Dim())
	}
	row := make([]uint8, len(labels))
	for i, label := range labels {
		code, ok := schema.ValueCode(i, label)
		if !ok {
			return nil, fmt.Errorf("row %d: unknown value %q for attribute %q", n, label, schema.Attr(i).Name)
		}
		row[i] = code
	}
	return row, nil
}

// decodeMutateBatch parses a JSON mutate request into a code batch.
// Both label and code rows are validated against the schema here, so
// a malformed request is always a 400 and handlers can reserve other
// statuses for genuine state conflicts.
func (s *server) decodeMutateBatch(w http.ResponseWriter, r *http.Request, verb string) ([][]uint8, bool) {
	var req mutateRequest
	if !s.decodeBody(w, r, &req) {
		return nil, false
	}
	schema := s.an.Dataset().Schema()
	batch := make([][]uint8, 0, len(req.Rows)+len(req.Codes))
	for n, labels := range req.Rows {
		row, err := s.rowFromLabels(n, labels)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return nil, false
		}
		batch = append(batch, row)
	}
	cards := schema.Cards()
	for n, row := range req.Codes {
		if len(row) != len(cards) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("codes row %d has %d values, schema has %d attributes", n, len(row), len(cards)))
			return nil, false
		}
		for i, v := range row {
			if int(v) >= cards[i] {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("codes row %d: value %d for attribute %q exceeds cardinality %d",
						n, v, schema.Attr(i).Name, cards[i]))
				return nil, false
			}
		}
		batch = append(batch, row)
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%s needs rows or codes", verb))
		return nil, false
	}
	return batch, true
}

// ndjsonBatchRows is how many streamed NDJSON rows are buffered before
// each engine feed: large enough to amortize the engine's per-batch
// lock and shard work over heavy ingest, small enough to bound memory.
const ndjsonBatchRows = 4096

// maxStreamBytes caps streamed NDJSON bodies. Streaming exists for
// bulk ingest, so the cap is far above the JSON body cap.
const maxStreamBytes = 1 << 30

// appendNDJSON consumes an application/x-ndjson body: one JSON array
// per line, either value labels (["male","white"]) or raw codes
// ([1,2]), fed to the engine in batches. Rows accepted before a
// malformed line remain appended; the error response reports how many.
func (s *server) appendNDJSON(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.streamLimit()))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	batch := make([][]uint8, 0, ndjsonBatchRows)
	appended := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.appendRows(batch); err != nil {
			return err
		}
		appended += len(batch)
		batch = batch[:0]
		return nil
	}
	fail := func(err error) {
		writeError(w, mutationStatus(err, bodyStatus(err)),
			fmt.Errorf("%w (%d rows appended before the error)", err, appended))
	}
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var labels []string
		if err := json.Unmarshal([]byte(raw), &labels); err == nil {
			row, err := s.rowFromLabels(line, labels)
			if err != nil {
				fail(err)
				return
			}
			batch = append(batch, row)
		} else {
			var codes []uint8
			if err := json.Unmarshal([]byte(raw), &codes); err != nil {
				fail(fmt.Errorf("line %d: not a JSON array of labels or codes: %q", line, raw))
				return
			}
			batch = append(batch, codes)
		}
		if len(batch) >= ndjsonBatchRows {
			if err := flush(); err != nil {
				fail(err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail(fmt.Errorf("reading body: %w", err))
		return
	}
	if err := flush(); err != nil {
		fail(err)
		return
	}
	if appended == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("append needs at least one NDJSON row"))
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Appended:   appended,
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/x-ndjson") {
		s.appendNDJSON(w, r)
		return
	}
	batch, ok := s.decodeMutateBatch(w, r, "append")
	if !ok {
		return
	}
	if err := s.appendRows(batch); err != nil {
		writeError(w, mutationStatus(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Appended:   len(batch),
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// handleDelete retracts rows. Deleting rows whose combination is not
// present (in sufficient multiplicity) is a state conflict, not a
// malformed request: the whole batch is rejected with 409 and the
// dataset is left untouched.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	batch, ok := s.decodeMutateBatch(w, r, "delete")
	if !ok {
		return
	}
	if err := s.deleteRows(batch); err != nil {
		writeError(w, mutationStatus(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Deleted:    len(batch),
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// windowResponse reports the sliding-window configuration alongside
// the live row count it currently bounds.
type windowResponse struct {
	MaxRows    int    `json:"max_rows"`
	Rows       int64  `json:"rows"`
	Generation uint64 `json:"generation"`
}

type windowRequest struct {
	MaxRows int `json:"max_rows"`
}

func (s *server) handleWindowGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, windowResponse{
		MaxRows:    s.an.Window(),
		Rows:       s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

func (s *server) handleWindowSet(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.MaxRows < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("max_rows must be >= 0 (0 disables the window)"))
		return
	}
	if err := s.setWindow(req.MaxRows); err != nil {
		writeError(w, mutationStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, windowResponse{
		MaxRows:    s.an.Window(),
		Rows:       s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// planRequest configures a remediation plan: a threshold spec (tau or
// rate) plus one objective (max_level λ or min_value_count), and
// optionally the greedy search's worker fan-out (0 = engine default;
// the plan is identical at every count).
type planRequest struct {
	Tau           int64   `json:"tau,omitempty"`
	Rate          float64 `json:"rate,omitempty"`
	MaxLevel      int     `json:"max_level,omitempty"`
	MinValueCount uint64  `json:"min_value_count,omitempty"`
	Workers       int     `json:"workers,omitempty"`
}

type suggestionJSON struct {
	Collect     string `json:"collect"`
	Description string `json:"description"`
	Combo       string `json:"example_combination"`
	GapsClosed  int    `json:"gaps_closed"`
}

type planResponse struct {
	Threshold   int64            `json:"threshold"`
	Targets     int              `json:"targets"`
	Tuples      int              `json:"tuples_to_collect"`
	Algorithm   string           `json:"algorithm"`
	Suggestions []suggestionJSON `json:"suggestions"`
}

// statusClientClosedRequest is nginx's de-facto status for "the client
// disconnected before the response was ready". The reply never reaches
// the client; the status exists for access logs and tests.
const statusClientClosedRequest = 499

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !s.admit(w) {
		return
	}
	release, ok := s.acquireSlots(w, r)
	if !ok {
		return
	}
	defer release()
	rep, err := s.an.FindMUPs(coverage.FindOptions{Threshold: req.Tau, ThresholdRate: req.Rate})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The request context rides into the greedy searcher's pruning
	// loop: a disconnected client cancels it, and the handler stops
	// burning CPU on a plan nobody will read.
	plan, err := s.an.PlanContext(r.Context(), rep, coverage.PlanOptions{
		MaxLevel:      req.MaxLevel,
		MinValueCount: req.MinValueCount,
		Workers:       req.Workers,
	})
	if err != nil {
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = statusClientClosedRequest
		}
		writeError(w, status, err)
		return
	}
	schema := s.an.Dataset().Schema()
	resp := planResponse{
		Threshold:   rep.Threshold,
		Targets:     len(plan.Targets),
		Tuples:      plan.NumTuples(),
		Algorithm:   plan.Stats.Algorithm,
		Suggestions: make([]suggestionJSON, 0, len(plan.Suggestions)),
	}
	for _, sg := range plan.Suggestions {
		resp.Suggestions = append(resp.Suggestions, suggestionJSON{
			Collect:     sg.Collect.String(),
			Description: schema.DescribePattern(sg.Collect),
			Combo:       coverage.Pattern(sg.Combo).String(),
			GapsClosed:  len(sg.Hits),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// Replication feed. A follower bootstraps by downloading the snapshot
// chain (GET /chain, GET /chain/{name}) into its own data directory,
// recovering from it, and then tailing GET /wal?from=<gen> — the raw
// framed, per-record-CRC WAL stream persist.DecodeWALStream parses.

// walFeedMaxBytes caps one /wal response; the follower resumes from
// the generation of the last record it received.
const walFeedMaxBytes = 4 << 20

// generationHeader carries the serving engine's generation on
// replication responses (and the follower's local generation on its
// read responses).
const generationHeader = "X-Coverage-Generation"

// walWaitHeader is set on /wal responses from servers that honor the
// `wait` query parameter. An old leader ignores unknown parameters and
// answers immediately without the header; the follower reads its
// absence as "long-polling unsupported" and falls back to its plain
// poll cadence.
const walWaitHeader = "X-Coverage-Wait"

// replicaIDHeader and replicaIntervalHeader identify a follower on its
// feed requests: a stable replica name, and how often the leader
// should expect to hear from it (its wait or poll interval) — the TTL
// base for /topology expiry.
const (
	replicaIDHeader       = "X-Replica-ID"
	replicaIntervalHeader = "X-Replica-Interval"
)

// maxWALWait caps how long one /wal long-poll may park, so a follower
// asking for an hour still re-contacts (and re-registers in the
// topology) at a bounded cadence.
const maxWALWait = 30 * time.Second

func (s *server) handleWALFeed(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q: %w", v, err))
			return
		}
		from = parsed
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: %w", v, err))
			return
		}
		if parsed < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: must be >= 0", v))
			return
		}
		wait = min(parsed, maxWALWait)
		w.Header().Set(walWaitHeader, wait.String())
	}
	s.observeReplica(r, from)

	data, gen, err := s.store.WALSince(from, walFeedMaxBytes)
	if err == nil && len(data) == 0 && wait > 0 {
		// Long poll: park on the commit hub until a commit moves the
		// durable generation past the follower's position, the wait
		// elapses, or the client goes away — then re-collect. A commit
		// landing between the WALSince above and the park is not lost:
		// AwaitGeneration returns immediately when the watermark is
		// already past from.
		if woke := s.store.AwaitGeneration(r.Context(), from, wait); woke > from {
			data, gen, err = s.store.WALSince(from, walFeedMaxBytes)
		}
	}
	if err != nil {
		if errors.Is(err, persist.ErrGone) {
			// The tail was pruned by snapshot retention: the follower
			// must resync from the snapshot chain.
			writeError(w, http.StatusGone, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(generationHeader, strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// observeReplica records a feed request in the topology when the
// caller identifies itself as a replica.
func (s *server) observeReplica(r *http.Request, from uint64) {
	if s.topo == nil {
		return
	}
	id := r.Header.Get(replicaIDHeader)
	if id == "" {
		return
	}
	var interval time.Duration
	if v := r.Header.Get(replicaIntervalHeader); v != "" {
		if parsed, err := time.ParseDuration(v); err == nil && parsed > 0 {
			interval = parsed
		}
	}
	s.topo.observe(id, r.RemoteAddr, from, interval)
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.topo.snapshot(s.an.Engine().Generation()))
}

// chainFileName reports whether name is a well-formed snapshot-chain
// file name (snap-<16 hex digits>.snap or .delta) — the only files
// /chain/{name} will serve, so the route cannot traverse paths.
func chainFileName(name string) bool {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return false
	}
	switch {
	case strings.HasSuffix(rest, ".snap"):
		rest = strings.TrimSuffix(rest, ".snap")
	case strings.HasSuffix(rest, ".delta"):
		rest = strings.TrimSuffix(rest, ".delta")
	default:
		return false
	}
	if len(rest) != 16 {
		return false
	}
	for _, c := range rest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type chainFileJSON struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

type chainResponse struct {
	Generation uint64          `json:"generation"`
	Files      []chainFileJSON `json:"files"`
}

func (s *server) handleChainList(w http.ResponseWriter, r *http.Request) {
	entries, err := os.ReadDir(s.store.Dir())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := chainResponse{Generation: s.an.Engine().Generation(), Files: []chainFileJSON{}}
	for _, e := range entries {
		if !chainFileName(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		resp.Files = append(resp.Files, chainFileJSON{Name: e.Name(), Bytes: info.Size()})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleChainFile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !chainFileName(name) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%q is not a snapshot chain file", name))
		return
	}
	f, err := os.Open(filepath.Join(s.store.Dir(), name))
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between the chain listing and this fetch; the
			// follower re-requests the listing.
			writeError(w, http.StatusNotFound, fmt.Errorf("chain file %s no longer retained", name))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
