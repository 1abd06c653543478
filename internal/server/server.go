package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
)

// maxBodyBytes bounds request bodies (a 64k-dim float vector is ~1.5 MB of
// JSON; batches should stay well under this).
const maxBodyBytes = 8 << 20

// exactQueryLimit caps the corpus size the exponential exact solver will
// accept over HTTP; larger requests must shrink the scope first.
const exactQueryLimit = 40

// exactLimitError explains an over-limit exact request.
func exactLimitError(n int) error {
	return fmt.Errorf("algorithm exact is limited to %d items (have %d); use another algorithm or shrink the candidate pool", exactQueryLimit, n)
}

// badRequestError marks a Diversify failure as the client's fault, so the
// handler can answer 400 instead of 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// BackendKind selects the corpus's growable distance representation. The
// enum values are exactly the metric kind strings the backends report, so
// flag parsing (cmd/serve -backend), Config validation, and /stats reporting
// all share one vocabulary — a kind read back from /stats can be fed
// straight into -backend.
type BackendKind string

const (
	// BackendF64 stores exact float64 triangular rows (the default).
	BackendF64 BackendKind = BackendKind(metric.KindF64)
	// BackendF32 stores float32 triangular rows: half the resident bytes of
	// BackendF64 with ~1e-7 relative rounding, the same O(1) lookups, and
	// the same O(n) row folds — the representation that lets corpora twice
	// as large fit the same memory budget.
	BackendF32 BackendKind = BackendKind(metric.KindF32)
	// BackendVecF32 stores no pairwise distances at all: flat float32 item
	// vectors (n·d·4 resident bytes instead of O(n²/2)) with cosine
	// distances computed on demand — the representation for corpora past
	// the point where any triangle fits. Items must carry vectors, and the
	// "maintained" query scope is unavailable (per-shard dynamic sessions
	// would reintroduce the quadratic storage the backend exists to avoid).
	BackendVecF32 BackendKind = BackendKind(metric.KindVecF32)
	// BackendVecInt8 is BackendVecF32 with int8-quantized vectors and one
	// float32 scale per item (n·(d+4) bytes, ~4× smaller again); cosine
	// error is bounded by coordinate rounding, O(√d/127) absolute.
	BackendVecInt8 BackendKind = BackendKind(metric.KindVecInt8)
)

// ParseBackendKind validates a backend name from a flag or config file.
// Empty selects the default (BackendF64).
func ParseBackendKind(s string) (BackendKind, error) {
	switch k := BackendKind(s); k {
	case "":
		return BackendF64, nil
	case BackendF64, BackendF32, BackendVecF32, BackendVecInt8:
		return k, nil
	default:
		return "", fmt.Errorf("server: unknown backend %q (want %s, %s, %s or %s)",
			s, BackendF64, BackendF32, BackendVecF32, BackendVecInt8)
	}
}

// vectorNative reports whether the kind stores vectors instead of pairwise
// distances (and therefore requires item vectors and disables the
// maintained scope).
func (k BackendKind) vectorNative() bool {
	return k == BackendVecF32 || k == BackendVecInt8
}

// Config parameterizes a Server. The zero value is usable: sizing fields
// get production-lean defaults, and Lambda 0 selects on quality alone.
type Config struct {
	// Shards is the number of index shards (default 8).
	Shards int
	// Lambda is the quality/diversity trade-off λ used for the maintained
	// per-shard selections and as the default for queries. 0 is meaningful
	// (pure quality) and is preserved; cmd/serve's flag defaults to 1.
	Lambda float64
	// MaintainK is the target size of each shard's dynamically maintained
	// selection (default 8).
	MaintainK int
	// Parallelism bounds the engine worker pool for query solves and the
	// shard fan-out (≤ 0 selects GOMAXPROCS).
	Parallelism int
	// FlushThreshold caps a shard's pending-mutation queue; reaching it
	// triggers an inline batch apply (default 256).
	FlushThreshold int
	// QueryTimeout bounds each /diversify solve (0 = unlimited): the
	// handler derives a deadline-carrying context and the solvers honor it
	// mid-scan, so a runaway query (exact on a large pool, a client that
	// hung up) stops burning workers promptly. Since queries solve on
	// pinned epochs, a slow or unbounded query only ever costs itself —
	// mutations never wait on it.
	QueryTimeout time.Duration
	// SolveDelay, when positive, holds each /diversify request for this
	// long before solving — a test hook that turns the server into a
	// predictably slow query target for load-model probes (open- vs
	// closed-loop latency accounting) without burning CPU. Mutations are
	// unaffected. Never set in production.
	SolveDelay time.Duration
	// Backend selects the corpus's distance representation: BackendF64
	// (default) for exact float64 rows, BackendF32 for half the resident
	// bytes, or BackendVecF32 / BackendVecInt8 to store only item vectors
	// (O(n·d) resident bytes) and compute cosine distances on demand.
	// Empty selects BackendF64.
	Backend BackendKind
	// Batch caps how many concurrent full-scope queries one batched solve
	// may serve: in-flight queries that pin the same epoch with a compatible
	// (algorithm, λ, k) coalesce onto a single candidate scan, so each
	// distance-row fold feeds every joined query instead of being redone per
	// query. 0 selects the default (16); 1 disables coalescing; negative is
	// rejected.
	Batch int
	// MaxEpochsLive backpressures mutations when slow readers pile up: once
	// more than this many published epochs are still pinned, mutation
	// requests are shed with 429 + Retry-After instead of growing the
	// retained-generation memory unboundedly. 0 selects the default (64);
	// negative disables the bound.
	MaxEpochsLive int
	// RowCache bounds the vector backends' distance-row cache: how many
	// computed rows the corpus store and each published epoch keep (memory
	// ≈ rows·items·4 bytes per live cache). 0 selects the metric package's
	// default (64); negative is rejected. Ignored by the triangular
	// backends, which store every row. Raise it when the working set —
	// large maintained selections, wide coalesced query fan-out — thrashes
	// the default, visible as a low row-cache hit rate in /stats.
	RowCache int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaintainK <= 0 {
		c.MaintainK = 8
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = 256
	}
	if c.Backend == "" {
		c.Backend = BackendF64
	}
	if c.Batch == 0 {
		c.Batch = defaultBatch
	}
	if c.MaxEpochsLive == 0 {
		c.MaxEpochsLive = 64
	}
	return c
}

// Server is the sharded in-memory diversification service. Create with New,
// expose via Handler. Mutations land in per-shard queues (with the paper's
// Section 6 dynamic maintenance per shard); flushed mutations are written
// through to one long-lived corpus whose distance backend grows and shrinks
// row by row, and each flush publishes an immutable epoch. Every query pins
// the current epoch and solves on it lock-free — the query path constructs
// no distance backend, whatever λ, k, or algorithm it carries, and a slow
// query can never stall a mutation (or the queries behind it).
type Server struct {
	cfg    Config
	shards []*shard
	corpus *corpus
	pool   *engine.Pool
	seed   maphash.Seed
	start  time.Time

	queryLat    LatencyRecorder
	mutationLat LatencyRecorder

	// dim is the corpus vector dimension, fixed by the first item carrying
	// a non-empty vector (0 = not yet fixed). Enforced across requests so
	// mismatched embeddings fail loudly instead of silently truncating in
	// the distance computation.
	dimMu sync.Mutex
	dim   int

	// mutationsShed counts mutation requests rejected by the epochs-live
	// backpressure bound (Config.MaxEpochsLive).
	mutationsShed atomic.Uint64

	healthy atomic.Bool
}

// New builds a server from the config (zero value = defaults).
func New(cfg Config) (*Server, error) {
	if _, err := ParseBackendKind(string(cfg.Backend)); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Lambda < 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return nil, fmt.Errorf("server: lambda = %g, want finite ≥ 0", cfg.Lambda)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("server: batch = %d, want ≥ 0 (1 disables coalescing)", cfg.Batch)
	}
	if cfg.RowCache < 0 {
		return nil, fmt.Errorf("server: row cache = %d, want ≥ 0 (0 selects the default)", cfg.RowCache)
	}
	pool := engine.New(cfg.Parallelism)
	corpus, err := newCorpus(pool, string(cfg.Backend), cfg.Batch, cfg.RowCache)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		corpus: corpus,
		pool:   pool,
		seed:   maphash.MakeSeed(),
		start:  time.Now(),
	}
	// Vector backends run maintenance-free shards: a per-shard dynamic
	// session keeps an O(n_shard²) dense distance matrix, which would
	// reintroduce exactly the quadratic residency the vector backend
	// removes. The maintained query scope is rejected up front instead.
	maintain := !cfg.Backend.vectorNative()
	for i := range s.shards {
		sh, err := newShard(cfg.Lambda, cfg.MaintainK, cfg.Parallelism, s.corpus.apply, maintain)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	s.healthy.Store(true)
	return s, nil
}

// shardFor hashes an item ID onto its owning shard.
func (s *Server) shardFor(id string) *shard {
	return s.shards[maphash.String(s.seed, id)%uint64(len(s.shards))]
}

// checkDims pins the corpus vector dimension on first use and rejects
// later items whose non-empty vectors disagree (DecodeItems already
// enforces consistency within the batch).
func (s *Server) checkDims(batch []ItemPayload) error {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	for _, it := range batch {
		if len(it.Vector) == 0 {
			// A vector backend has nothing to store for a vectorless item —
			// and accepting one would freeze the corpus dimensionless,
			// failing every later vector insert. Reject up front.
			if s.cfg.Backend.vectorNative() {
				return fmt.Errorf("item %q: backend %s requires a vector", it.ID, s.cfg.Backend)
			}
			continue
		}
		if s.dim == 0 {
			s.dim = len(it.Vector)
		} else if len(it.Vector) != s.dim {
			return fmt.Errorf("item %q: vector dim %d, corpus uses %d", it.ID, len(it.Vector), s.dim)
		}
	}
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /items", s.handleUpsert)
	mux.HandleFunc("GET /items/{id}", s.handleGetItem)
	mux.HandleFunc("DELETE /items/{id}", s.handleDelete)
	mux.HandleFunc("POST /diversify", s.handleDiversify)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// ItemPayload is the wire form of one item.
type ItemPayload struct {
	ID     string    `json:"id"`
	Weight float64   `json:"weight"`
	Vector []float64 `json:"vector,omitempty"`
}

// DecodeItems parses a POST /items body: a single item object or an array
// of them, validated (non-empty IDs, finite non-negative weights, finite
// vector coordinates, consistent dimensions within the batch).
func DecodeItems(r io.Reader) ([]ItemPayload, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var batch []ItemPayload
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := strictUnmarshal(data, &batch); err != nil {
			return nil, err
		}
	} else {
		var one ItemPayload
		if err := strictUnmarshal(data, &one); err != nil {
			return nil, err
		}
		batch = []ItemPayload{one}
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	dim := -1
	for i, it := range batch {
		if it.ID == "" {
			return nil, fmt.Errorf("item %d: missing id", i)
		}
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return nil, fmt.Errorf("item %d (%q): weight %g invalid", i, it.ID, it.Weight)
		}
		for k, x := range it.Vector {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("item %d (%q): vector[%d] = %g invalid", i, it.ID, k, x)
			}
		}
		if len(it.Vector) > 0 {
			if dim == -1 {
				dim = len(it.Vector)
			} else if len(it.Vector) != dim {
				return nil, fmt.Errorf("item %d (%q): vector dim %d, batch uses %d", i, it.ID, len(it.Vector), dim)
			}
		}
	}
	return batch, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// DiversifyRequest is the wire form of a query.
type DiversifyRequest struct {
	// K is the number of items to select (clamped to the live item count).
	K int `json:"k"`
	// Algorithm is one of greedy (default), greedy-improved, gs, oblivious,
	// localsearch, exact.
	Algorithm string `json:"algorithm,omitempty"`
	// Lambda overrides the server's quality/diversity trade-off for this
	// query (nil = server default).
	Lambda *float64 `json:"lambda,omitempty"`
	// Scope is "full" (default: solve over every live item) or
	// "maintained" (solve over the union of the shards' maintained
	// selections — constant-size, corpus-independent latency).
	Scope string `json:"scope,omitempty"`
	// IncludeVectors attaches each selected item's feature vector to the
	// response — what a cluster coordinator needs to re-solve a merged
	// per-member candidate union locally (composable core-sets). Vectors
	// are resolved against the live build state, so an item deleted (or
	// rewritten) between the solve and the response may come back without
	// one (or with the newer vector); coordinators drop vectorless
	// candidates.
	IncludeVectors bool `json:"include_vectors,omitempty"`
}

// DecodeDiversify parses and validates a POST /diversify body.
func DecodeDiversify(r io.Reader) (DiversifyRequest, error) {
	var req DiversifyRequest
	data, err := io.ReadAll(io.LimitReader(r, maxBodyBytes+1))
	if err != nil {
		return req, fmt.Errorf("read body: %w", err)
	}
	if len(data) > maxBodyBytes {
		return req, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	if err := strictUnmarshal(data, &req); err != nil {
		return req, err
	}
	if req.K < 0 {
		return req, fmt.Errorf("k = %d, want ≥ 0", req.K)
	}
	if _, err := algorithmOf(req.Algorithm); err != nil {
		return req, err
	}
	if req.Lambda != nil {
		l := *req.Lambda
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return req, fmt.Errorf("lambda = %g, want finite ≥ 0", l)
		}
	}
	switch req.Scope {
	case "", "full", "maintained":
	default:
		return req, fmt.Errorf("scope %q, want full or maintained", req.Scope)
	}
	return req, nil
}

// algorithmOf maps the wire name onto the core dispatch enum.
func algorithmOf(name string) (core.Algo, error) {
	switch name {
	case "", "greedy":
		return core.AlgoGreedy, nil
	case "greedy-improved":
		return core.AlgoGreedyImproved, nil
	case "gs":
		return core.AlgoGollapudiSharma, nil
	case "oblivious":
		return core.AlgoOblivious, nil
	case "localsearch":
		return core.AlgoLocalSearch, nil
	case "exact":
		return core.AlgoExact, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

// MutationResponse is the wire form of a POST /items or DELETE /items reply.
type MutationResponse struct {
	Accepted int `json:"accepted"`
	// Pending is the owning shards' total queue length after the mutation —
	// an observability hint, not a durability promise (mutations are applied
	// before any subsequent query reads).
	Pending int `json:"pending"`
}

// SelectedItem is one element of a query result. Vector is attached only
// when the query asked for it (DiversifyRequest.IncludeVectors).
type SelectedItem struct {
	ID     string    `json:"id"`
	Weight float64   `json:"weight"`
	Vector []float64 `json:"vector,omitempty"`
}

// DiversifyResponse is the wire form of a query reply.
type DiversifyResponse struct {
	Items      []SelectedItem `json:"items"`
	Value      float64        `json:"value"`
	Quality    float64        `json:"quality"`
	Dispersion float64        `json:"dispersion"`
	N          int            `json:"n"`
	Algorithm  string         `json:"algorithm"`
	Scope      string         `json:"scope"`
	ElapsedMS  float64        `json:"elapsed_ms"`
	// Epoch is the corpus generation the solve pinned — the consistency
	// marker cluster coordinators aggregate so replica staleness is
	// observable per member.
	Epoch uint64 `json:"epoch"`
}

// ItemStatus is the wire form of a GET /items/{id} reply: enough to verify
// placement (which node owns the id, with what weight and dimensionality)
// without exposing the vector itself.
type ItemStatus struct {
	ID        string  `json:"id"`
	Weight    float64 `json:"weight"`
	HasVector bool    `json:"has_vector"`
	Dim       int     `json:"dim,omitempty"`
}

// shedMutation applies the epochs-live backpressure bound: when slow readers
// hold more than MaxEpochsLive published generations alive, every additional
// flush would retain yet another full distance snapshot, so mutations are
// rejected with 429 + Retry-After until the readers drain. Returns true when
// the request was shed (response already written).
func (s *Server) shedMutation(w http.ResponseWriter) bool {
	if s.cfg.MaxEpochsLive <= 0 {
		return false
	}
	live := s.corpus.epochsLive()
	if live <= int64(s.cfg.MaxEpochsLive) {
		return false
	}
	s.mutationsShed.Add(1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests,
		fmt.Errorf("mutations shed: %d epochs still pinned by in-flight queries (bound %d); retry shortly", live, s.cfg.MaxEpochsLive))
	return true
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.shedMutation(w) {
		return
	}
	batch, err := DecodeItems(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.checkDims(batch); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	touched := make(map[*shard]bool)
	flushed := false
	for _, it := range batch {
		sh := s.shardFor(it.ID)
		touched[sh] = true
		n, _ := sh.enqueue(op{kind: opUpsert, id: it.ID, weight: it.Weight, vector: it.Vector})
		if n >= s.cfg.FlushThreshold {
			if _, err := sh.flush(); err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			flushed = true
		}
	}
	// One publish per request, not per threshold flush: the epoch metadata
	// copy is O(n), and queries only need the batch visible once it is
	// acknowledged.
	if flushed {
		s.corpus.publishIfDirty()
	}
	pending := 0
	for sh := range touched {
		pending += sh.pendingLen()
	}
	s.mutationLat.Record(time.Since(start))
	writeJSON(w, http.StatusOK, MutationResponse{Accepted: len(batch), Pending: pending})
}

// handleGetItem answers GET /items/{id}: the item's weight and vector
// presence as the client observes it (pending queued mutations included),
// 404 when the id is unknown. Cluster routing tests use it to verify ring
// placement without scraping /stats.
func (s *Server) handleGetItem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing item id"))
		return
	}
	st, ok := s.shardFor(id).getItem(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown item %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.shedMutation(w) {
		return
	}
	id := r.PathValue("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing item id"))
		return
	}
	sh := s.shardFor(id)
	n, ok := sh.enqueue(op{kind: opDelete, id: id})
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown item %q", id))
		return
	}
	if n >= s.cfg.FlushThreshold {
		if _, err := sh.flush(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		s.corpus.publishIfDirty()
		n = sh.pendingLen()
	}
	s.mutationLat.Record(time.Since(start))
	writeJSON(w, http.StatusOK, MutationResponse{Accepted: 1, Pending: n})
}

func (s *Server) handleDiversify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := DecodeDiversify(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	resp, err := s.Diversify(ctx, req)
	if err != nil {
		code := http.StatusInternalServerError
		var bad badRequestError
		switch {
		case errors.As(err, &bad):
			code = http.StatusBadRequest
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client hung up; any status is written to a dead
			// connection, but pick one that won't alarm middleboxes.
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err)
		return
	}
	s.queryLat.Record(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// Diversify answers a query: flush every shard (fanned out over the engine
// pool, each flush writing through to the long-lived corpus), publish the
// resulting epoch, then pin it and solve lock-free with the requested
// algorithm and per-query λ. Nothing is constructed on the query path —
// no problem, no distance backend, no worker pool — ctx cancels the solve
// mid-scan, and concurrent mutations flush and publish right past the
// running solve without waiting for it.
func (s *Server) Diversify(ctx context.Context, req DiversifyRequest) (*DiversifyResponse, error) {
	start := time.Now()
	algo, err := algorithmOf(req.Algorithm)
	if err != nil {
		return nil, badRequestError{err}
	}
	if s.cfg.SolveDelay > 0 {
		timer := time.NewTimer(s.cfg.SolveDelay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	maintained := req.Scope == "maintained"
	if maintained && s.cfg.Backend.vectorNative() {
		return nil, badRequestError{fmt.Errorf(
			"scope maintained is unavailable on backend %s (vector backends run maintenance-free shards); use scope full", s.cfg.Backend)}
	}
	errs := make([]error, len(s.shards))
	maintainedIDs := make([][]string, len(s.shards))
	s.pool.Do(len(s.shards), func(i int) {
		if maintained {
			maintainedIDs[i], errs[i] = s.shards[i].maintainedIDs()
		} else {
			_, errs[i] = s.shards[i].flush()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.corpus.publishIfDirty()

	scope := req.Scope
	if scope == "" {
		scope = "full"
	}
	resp := &DiversifyResponse{
		Items:     []SelectedItem{},
		Algorithm: req.Algorithm,
		Scope:     scope,
	}
	if resp.Algorithm == "" {
		resp.Algorithm = "greedy"
	}

	lambda := s.cfg.Lambda
	if req.Lambda != nil {
		lambda = *req.Lambda
	}
	// The exact-size cap is enforced against the pinned epoch's pool size,
	// which is immutable for the duration of the solve, so a concurrent
	// flush cannot grow the pool between check and enumeration.
	spec := solveSpec{algo: algo, k: req.K, lambda: lambda, exactLimit: exactQueryLimit}
	var res *solveResult
	if maintained {
		var pool []string
		for _, ids := range maintainedIDs {
			pool = append(pool, ids...)
		}
		res, err = s.corpus.solveSubset(ctx, pool, spec)
	} else {
		res, err = s.corpus.solveFull(ctx, spec)
	}
	if err != nil {
		return nil, err
	}
	resp.N = res.n
	resp.Epoch = res.epoch
	if res.sol != nil {
		resp.Items = make([]SelectedItem, len(res.items))
		for i, it := range res.items {
			resp.Items[i] = SelectedItem{ID: it.id, Weight: it.weight}
		}
		resp.Value, resp.Quality, resp.Dispersion = res.sol.Value, res.sol.FValue, res.sol.Dispersion
		if req.IncludeVectors {
			s.corpus.fillVectors(resp.Items)
		}
	}
	resp.ElapsedMS = ms(time.Since(start))
	return resp, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if !s.healthy.Load() {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "items": s.itemCount()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// itemCount totals live items (including pending effects) across shards.
func (s *Server) itemCount() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.liveCount()
	}
	return total
}

// Stats snapshots the observability surface.
func (s *Server) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        make([]ShardStats, len(s.shards)),
		Query:         s.queryLat.Snapshot(),
		Mutation:      s.mutationLat.Snapshot(),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		row := ShardStats{
			Items:   len(sh.items),
			Pending: len(sh.pending),
			Inserts: sh.inserts,
			Updates: sh.updates,
			Deletes: sh.deletes,
			Flushes: sh.flushes,
			Swaps:   sh.swaps,
		}
		if sh.sess != nil {
			members := sh.sess.Members()
			row.MaintainedSize, row.MaintainedValue = len(members), sh.sess.Value()
		}
		sh.mu.Unlock()
		st.Shards[i] = row
	}
	st.Items = s.itemCount()
	items := s.corpus.size()
	cs := CorpusStats{
		Items:         items,
		Queries:       s.corpus.queriesServed(),
		Backend:       s.corpus.backendKind(),
		Epoch:         s.corpus.epochSeq(),
		EpochsLive:    s.corpus.epochsLive(),
		ResidentBytes: s.corpus.residentBytes(),
	}
	cs.QueriesCoalesced, cs.QueriesSolo = s.corpus.batch.counters()
	cs.Kernel = metric.KernelVariant()
	if rows, hits, misses, ok := s.corpus.rowCacheStats(); ok {
		cs.RowCache = &RowCacheStats{Rows: rows, Hits: hits, Misses: misses}
	}
	if items > 0 {
		cs.BytesPerItem = float64(cs.ResidentBytes) / float64(items)
	}
	st.Corpus = cs
	st.MutationsShed = s.mutationsShed.Load()
	return st
}

// SetHealthy flips the /healthz status; cmd/serve marks the server draining
// before a graceful shutdown so load balancers stop routing to it.
func (s *Server) SetHealthy(ok bool) { s.healthy.Store(ok) }

// Flush applies every shard's pending queue and publishes the resulting
// epoch (test and shutdown hook).
func (s *Server) Flush() error {
	errs := make([]error, len(s.shards))
	s.pool.Do(len(s.shards), func(i int) {
		_, errs[i] = s.shards[i].flush()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.corpus.publishIfDirty()
	return nil
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
