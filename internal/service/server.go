package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
)

// Upload bounds: maxUploadBytes caps the request body on the wire, and
// uploadLimits bounds the decompressed stream — vertices, edge lines,
// and bytes — so a gzip bomb or a lying header cannot balloon a tiny
// body into unbounded allocation.
const maxUploadBytes = 256 << 20

var uploadLimits = graph.ReadLimits{
	MaxVertices: 1 << 24,
	MaxEdges:    1 << 26,
	MaxBytes:    1 << 31,
}

// Request headers of the v1 API.
const (
	// TenantHeader names the calling tenant; absent means DefaultTenant.
	TenantHeader = "X-Tenant"
	// TimeoutHeader carries the caller's remaining budget in
	// milliseconds; the server derives the request deadline from it, so
	// deadline expiry is observed SERVER-side and reported with the
	// "deadline" envelope code instead of a torn client-side connection.
	TimeoutHeader = "X-Timeout-Ms"
	// RequestIDHeader names the trace the request's spans are filed
	// under (GET /v1/debug/traces/{id}). Absent or malformed, the server
	// generates one; the response always echoes the effective value.
	RequestIDHeader = "X-Request-Id"
)

// maxTenantName bounds the tenant header (it becomes a map key in the
// stats schema).
const maxTenantName = 64

// registerRequest is the JSON body of POST /v1/graphs when registering
// by generator spec.
type registerRequest struct {
	Spec gen.Spec `json:"spec"`
}

// ErrorInfo is the payload of the uniform error envelope. Code is a
// stable machine-readable discriminator (see errorCodes); Message is
// human-readable and NOT stable; Retryable marks errors where the
// identical request can simply be retried after a backoff.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorResponse is the uniform JSON error envelope:
// {"error":{"code":"...","message":"...","retryable":bool}}.
type errorResponse struct {
	Error ErrorInfo `json:"error"`
}

// Envelope codes, with their HTTP statuses.
const (
	CodeBusy         = "busy"          // 503, retryable: queue full or shutting down
	CodeQuota        = "quota"         // 429, retryable: tenant over a quota
	CodeDeadline     = "deadline"      // 504, retryable: request deadline expired
	CodeCanceled     = "canceled"      // 408: caller went away mid-wait
	CodeNotFound     = "not_found"     // 404: unknown snapshot
	CodeRegistryFull = "registry_full" // 507: snapshot registry at capacity
	CodeInternal     = "internal"      // 500: computation failed server-side
	CodeBadRequest   = "bad_request"   // 400: malformed params/spec/upload
	// CodeFragmentMissing (412) answers a dist-count naming a snapshot
	// whose CSR this replica does not hold; the coordinator re-pushes it
	// and retries, so it is not "retryable" as-is.
	CodeFragmentMissing = "fragment_missing"
	// CodeFragmentTooLarge (413) refuses a pushed snapshot CSR larger
	// than the replica's fragment cache bound.
	CodeFragmentTooLarge = "fragment_too_large"
)

// errorCodes is the error envelope's one vocabulary: each row maps a
// service sentinel onto its HTTP status, envelope code and
// retryability. writeError answers with the first row whose sentinel the
// error wraps, and APIError.Unwrap maps a code back onto the first row
// carrying it; an error no row matches is a 400 bad_request. ErrClosed
// rides the busy code (a restarting replica wants the LB to retry
// elsewhere, exactly like backpressure), and its row comes after
// ErrBusy's so the busy code unwraps to ErrBusy.
var errorCodes = []struct {
	err       error
	status    int
	code      string
	retryable bool
}{
	{ErrBusy, http.StatusServiceUnavailable, CodeBusy, true},
	{ErrClosed, http.StatusServiceUnavailable, CodeBusy, true},
	{ErrQuota, http.StatusTooManyRequests, CodeQuota, true},
	{ErrDeadline, http.StatusGatewayTimeout, CodeDeadline, true},
	{ErrCanceled, http.StatusRequestTimeout, CodeCanceled, false},
	{ErrNotFound, http.StatusNotFound, CodeNotFound, false},
	{ErrRegistryFull, http.StatusInsufficientStorage, CodeRegistryFull, false},
	{ErrFragmentMissing, http.StatusPreconditionFailed, CodeFragmentMissing, false},
	{ErrFragmentTooLarge, http.StatusRequestEntityTooLarge, CodeFragmentTooLarge, false},
	// The request was valid; the kernel failed. Server fault.
	{ErrCompute, http.StatusInternalServerError, CodeInternal, false},
}

// Handler returns the dexpanderd HTTP API:
//
//	POST   /v1/graphs                        register (JSON spec or edge-list upload)
//	GET    /v1/graphs                        list snapshots
//	GET    /v1/graphs/{id}                   snapshot metadata
//	DELETE /v1/graphs/{id}                   release one reference
//	POST   /v1/graphs/{id}/decompose         expander decomposition (Theorem 1)
//	POST   /v1/graphs/{id}/triangles/count   triangle count (parallel kernel)
//	POST   /v1/graphs/{id}/triangles/enumerate  CONGEST enumeration (Theorem 2)
//	POST   /v1/graphs/{id}/triangles/count-dist distributed count (peer fleet)
//	PUT    /v1/dist/fragments/{id}           push a snapshot's whole CSR (fleet-internal)
//	POST   /v1/dist/count                    count a batch of row ranges (fleet-internal)
//	GET    /v1/stats                         service counters (schema v3)
//	GET    /v1/debug/traces/{id}             one trace's recorded spans
//	GET    /metrics                          Prometheus text exposition
//	GET    /healthz                          liveness + build/version report
//
// Every mutating/compute endpoint honors the X-Tenant and X-Timeout-Ms
// headers; errors use the uniform envelope (errorResponse). Responses
// are deterministic in (snapshot, algorithm, params): the checksums are
// the same FNV digests the bench matrix pins.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleRegister)
	mux.HandleFunc("GET /v1/graphs", s.handleList)
	mux.HandleFunc("GET /v1/graphs/{id}", s.handleSnapshot)
	mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleRelease)
	mux.HandleFunc("POST /v1/graphs/{id}/decompose", queryHandler[DecomposeParams](s))
	mux.HandleFunc("POST /v1/graphs/{id}/triangles/count", queryHandler[CountParams](s))
	mux.HandleFunc("POST /v1/graphs/{id}/triangles/enumerate", queryHandler[EnumerateParams](s))
	mux.HandleFunc("POST /v1/graphs/{id}/triangles/count-dist", queryHandler[DistCountParams](s))
	mux.HandleFunc("PUT /v1/dist/fragments/{id}", s.handlePutFragment)
	mux.HandleFunc("POST /v1/dist/count", s.handleDistCount)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// statusWriter captures the response status for the request span/log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// sanitizeRequestID accepts a caller-supplied X-Request-Id only when it
// is short and printable-safe: it becomes a map key in the trace ring
// and a JSON log field, so arbitrary bytes are rejected rather than
// escaped.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return id
}

// instrument wraps the API mux with the request-scoped observability
// shell: it resolves the request's trace ID (the sanitized X-Request-Id
// header, or a fresh one), echoes it, opens the root "http" span that
// the query span parents under via the request context, and emits one
// structured access-log line per request. With tracing and logging both
// disabled it returns the mux untouched, so the served path is
// byte-for-byte the pre-observability one.
func (s *Service) instrument(mux http.Handler) http.Handler {
	if s.cfg.Tracer == nil && s.cfg.Logger == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = obs.NewTraceID()
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		var sp *obs.Span
		if s.cfg.Tracer != nil {
			sp = s.cfg.Tracer.Root(id, "http")
			sp.Attr("method", r.Method).Attr("path", r.URL.Path)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		mux.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		sp.AttrInt("status", status)
		sp.End()
		if lg := s.cfg.Logger; lg != nil {
			elapsed := time.Since(start)
			kv := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"request_id", id,
				"duration_ms", float64(elapsed) / float64(time.Millisecond),
			}
			if tn := r.Header.Get(TenantHeader); tn != "" && len(tn) <= maxTenantName {
				kv = append(kv, "tenant", tn)
			}
			if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
				kv = append(kv, "slow", true)
				lg.Warn("http", kv...)
			} else if lg.Enabled(r.Context(), slog.LevelDebug) {
				// Per-request HTTP lines are debug-level: the query log
				// already covers the compute endpoints at info.
				lg.Debug("http", kv...)
			}
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, err error) {
	status, info := http.StatusBadRequest, ErrorInfo{Code: CodeBadRequest, Message: err.Error()}
	for _, row := range errorCodes {
		if errors.Is(err, row.err) {
			status, info.Code, info.Retryable = row.status, row.code, row.retryable
			break
		}
	}
	if info.Retryable {
		// Both 429 and 503 (and the retryable 504) carry a backoff hint.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: info})
}

// tenantOf extracts and validates the caller's tenant.
func tenantOf(r *http.Request) (string, error) {
	tn := r.Header.Get(TenantHeader)
	if len(tn) > maxTenantName {
		return "", fmt.Errorf("service: tenant name longer than %d bytes", maxTenantName)
	}
	return tn, nil
}

// requestContext derives the request's context, shrunk by the
// X-Timeout-Ms header when present. The returned cancel must be called.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	h := r.Header.Get(TimeoutHeader)
	if h == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 {
		return nil, nil, fmt.Errorf("service: bad %s header %q", TimeoutHeader, h)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// handleRegister accepts either a JSON {"spec": ...} body
// (Content-Type application/json) or a raw edge-list upload in any
// format ReadEdgeList accepts: "n m" header or SNAP-style comments,
// plain or gzip-compressed.
func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	tn, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var snap *Snapshot
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req registerRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("parse register request: %w", err))
			return
		}
		snap, err = s.RegisterSpec(tn, req.Spec)
	} else {
		var g *graph.Graph
		g, err = graph.ReadEdgeListLimited(body, uploadLimits)
		if err == nil {
			snap, err = s.RegisterGraph(tn, g)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, snap)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshots())
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Snapshot(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	tn, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	refs, err := s.Release(tn, r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"refs": refs})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// HealthResponse is the GET /healthz payload: liveness plus the
// build/version facts an operator wants before anything else when a
// replica misbehaves.
type HealthResponse struct {
	Status        string `json:"status"`
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Peers         int    `json:"peers"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		ModuleVersion: "(devel)",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Peers:         len(s.cfg.Peers),
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		h.ModuleVersion = bi.Main.Version
	}
	writeJSON(w, http.StatusOK, h)
}

// TraceResponse is the GET /v1/debug/traces/{id} payload: every span
// recorded under the trace still resident in the ring, sorted by start
// time. Spans from replica fleets carry a "peer" attribute naming the
// base URL they ran on.
type TraceResponse struct {
	TraceID string     `json:"trace_id"`
	Spans   []obs.Span `json:"spans"`
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Tracer
	if tr == nil {
		writeError(w, fmt.Errorf("%w: tracing disabled", ErrNotFound))
		return
	}
	id := r.PathValue("id")
	spans := tr.Trace(id)
	if len(spans) == 0 {
		writeError(w, fmt.Errorf("%w: no spans recorded for trace %q (evicted, unsampled, or never seen)", ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: spans})
}

// distCountRequest is the JSON body of the fleet-internal POST
// /v1/dist/count: a batch of row ranges [lo, hi) of the CSR resident
// under the named snapshot, whose rank space has Ranks ranks.
type distCountRequest struct {
	Snapshot string     `json:"snapshot"`
	Ranks    int        `json:"ranks"`
	Ranges   [][2]int32 `json:"ranges"`
	// Trace, when set, asks the replica to run the batch under a span of
	// the named trace and return its spans, so the coordinator merges
	// one cross-replica trace out of the fan-out.
	Trace *TraceRef `json:"trace,omitempty"`
}

// TraceRef names the coordinator span a replica's work parents under.
type TraceRef struct {
	ID     string `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
}

type distCountResponse struct {
	// Counts holds one count per requested range, in request order.
	Counts []int `json:"counts"`
	// Spans are the replica-side spans of the coordinator's trace
	// (present only when the request carried a TraceRef).
	Spans []obs.Span `json:"spans,omitempty"`
}

// handlePutFragment stores a snapshot's whole encoded CSR in the
// replica's fragment cache. Idempotent: re-pushing a resident snapshot
// answers stored == false without decoding the body. A body over
// MaxFragmentBytes is refused with fragment_too_large.
func (s *Service) handlePutFragment(w http.ResponseWriter, r *http.Request) {
	// A declared length over the bound is refused before any of the body
	// is read; MaxBytesReader catches a body without one.
	if r.ContentLength > s.cfg.MaxFragmentBytes {
		writeError(w, fmt.Errorf("%w: body of %d bytes, cache bound %d",
			ErrFragmentTooLarge, r.ContentLength, s.cfg.MaxFragmentBytes))
		return
	}
	data, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxFragmentBytes), r.ContentLength)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		err = fmt.Errorf("%w: body over %d bytes", ErrFragmentTooLarge, tooLarge.Limit)
	}
	if err != nil {
		writeError(w, fmt.Errorf("read fragment body: %w", err))
		return
	}
	stored, err := s.StoreFragment(r.PathValue("id"), data)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stored": stored})
}

// readBody reads a request body whose declared length is n (-1 when
// unknown). With a declared length the buffer starts at 64 KiB and
// doubles as bytes arrive, up to exactly n: a whole snapshot CSR costs a
// few copies where io.ReadAll's small growth steps cost dozens, and a
// client that declares more than it sends cannot make the server
// allocate the declared size up front.
func readBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(body)
	}
	data := make([]byte, 0, min(n, 64<<10))
	for int64(len(data)) < n {
		if len(data) == cap(data) {
			data = slices.Grow(data, int(min(n-int64(len(data)), int64(len(data)))))
		}
		m, err := body.Read(data[len(data):cap(data)])
		data = data[:len(data)+m]
		if err != nil && int64(len(data)) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return data, nil
}

// handleDistCount counts a batch of row ranges from a resident CSR.
// Runs on the handler goroutine, not the compute pool: the
// coordinator's window already bounds a peer's in-flight batches, and
// the request's context (shrunk by X-Timeout-Ms) stops the batch
// between ranges. A batch of at most maxDistGrid ranges fits the same
// 1 MiB body bound as a query's params.
func (s *Service) handleDistCount(w http.ResponseWriter, r *http.Request) {
	var req distCountRequest
	if err := decodeParams(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		writeError(w, fmt.Errorf("parse dist count request: %w", err))
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	// Adopt the coordinator's trace so the replica's span carries the
	// same trace ID and parents under the coordinator's dist.count
	// span. The spans travel back in the response for the coordinator
	// to merge (and stay in this replica's ring too).
	var sp *obs.Span
	if req.Trace != nil && s.cfg.Tracer != nil && sanitizeRequestID(req.Trace.ID) != "" {
		sp = s.cfg.Tracer.Adopt(req.Trace.ID, req.Trace.Parent, "replica.count")
		sp.AttrInt("ranges", len(req.Ranges))
	}
	counts, spans, err := s.DistCountRanges(obs.ContextWithSpan(ctx, sp), req.Snapshot, req.Ranks, req.Ranges)
	if err != nil {
		if sp != nil {
			sp.Attr("outcome", "error").End()
		}
		writeError(w, err)
		return
	}
	resp := distCountResponse{Counts: counts}
	if sp != nil {
		total := 0
		for _, n := range counts {
			total += n
		}
		sp.AttrInt("count", total).End()
		resp.Spans = append([]obs.Span{sp.Snapshot()}, spans...)
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryHandler serves one algorithm endpoint with its typed params (an
// empty body means defaults). Instantiated per concrete params type so
// the JSON decoder rejects fields the algorithm does not have, instead
// of silently dropping them into a shared grab-bag.
func queryHandler[P any, PP interface {
	*P
	Params
}](s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var p P
		// MaxBytesReader (unlike a silent LimitReader truncation)
		// surfaces an explicit "request body too large" error.
		if err := decodeParams(http.MaxBytesReader(w, r.Body, 1<<20), PP(&p)); err != nil {
			writeError(w, fmt.Errorf("parse query params: %w", err))
			return
		}
		tn, err := tenantOf(r)
		if err != nil {
			writeError(w, err)
			return
		}
		ctx, cancel, err := requestContext(r)
		if err != nil {
			writeError(w, err)
			return
		}
		defer cancel()
		res, err := s.Query(ctx, tn, r.PathValue("id"), PP(&p))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

func decodeParams(r io.Reader, p any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	return dec.Decode(p)
}
