package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/obs"
)

// Client is the thin Go binding of the dexpanderd HTTP API. The zero
// http.Client is used unless HTTP is set.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8437".
	Base string
	// Tenant is sent as the X-Tenant header on every request; empty
	// means the server's DefaultTenant.
	Tenant string
	// RequestID, when set, is sent as the X-Request-Id header on every
	// request, naming the trace the server files its spans under
	// (retrievable at GET /v1/debug/traces/{id} when the server traces).
	// Empty lets the server pick one; the response echoes it either way.
	RequestID string
	// HTTP overrides the transport (nil means http.DefaultClient).
	HTTP *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx response decoded from the error envelope. It
// unwraps to the service sentinel matching its Code, so callers test
// outcomes transport-agnostically:
//
//	if errors.Is(err, service.ErrBusy) { backoff and retry }
type APIError struct {
	Status int
	// Code is the stable envelope code ("busy", "quota", "deadline",
	// "canceled", "not_found", "registry_full", "internal",
	// "bad_request").
	Code string
	Msg  string
	// Retryable marks errors (backpressure, quota, deadline) where the
	// identical request can simply be retried after a backoff.
	Retryable bool
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: HTTP %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Msg)
}

// Unwrap maps the envelope code back onto the service's sentinel error
// through errorCodes.
func (e *APIError) Unwrap() error {
	for _, row := range errorCodes {
		if row.code == e.Code {
			return row.err
		}
	}
	return nil
}

// do issues one request and decodes the JSON response into out. A ctx
// deadline is forwarded as the X-Timeout-Ms header so the SERVER
// enforces it and reports expiry with the "deadline" code, rather than
// the client tearing the connection down mid-response.
func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	if c.RequestID != "" {
		req.Header.Set(RequestIDHeader, c.RequestID)
	}
	if deadline, ok := ctx.Deadline(); ok {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(TimeoutHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error.Message != "" {
			return &APIError{
				Status:    resp.StatusCode,
				Code:      er.Error.Code,
				Msg:       er.Error.Message,
				Retryable: er.Error.Retryable,
			}
		}
		return &APIError{Status: resp.StatusCode, Msg: string(data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func jsonBody(v any) (io.Reader, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// RegisterSpec registers a generated graph by spec.
func (c *Client) RegisterSpec(ctx context.Context, spec gen.Spec) (*Snapshot, error) {
	body, err := jsonBody(registerRequest{Spec: spec})
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := c.do(ctx, http.MethodPost, "/v1/graphs", "application/json", body, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// RegisterEdgeList uploads an edge list (any format graph.ReadEdgeList
// accepts: "n m" header or SNAP comments, plain or gzipped).
func (c *Client) RegisterEdgeList(ctx context.Context, r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := c.do(ctx, http.MethodPost, "/v1/graphs", "text/plain", r, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Snapshots lists the registry.
func (c *Client) Snapshots(ctx context.Context) ([]*Snapshot, error) {
	var out []*Snapshot
	if err := c.do(ctx, http.MethodGet, "/v1/graphs", "", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Release drops one of the tenant's references to the snapshot; at zero
// total references it is evicted.
func (c *Client) Release(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+id, "", nil, nil)
}

func (c *Client) query(ctx context.Context, id, endpoint string, p any) (*Result, error) {
	body, err := jsonBody(p)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := c.do(ctx, http.MethodPost, "/v1/graphs/"+id+endpoint, "application/json", body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Decompose runs (or fetches the cached) expander decomposition.
func (c *Client) Decompose(ctx context.Context, id string, p DecomposeParams) (*Result, error) {
	return c.query(ctx, id, "/decompose", p)
}

// TriangleCount runs (or fetches) the triangle count.
func (c *Client) TriangleCount(ctx context.Context, id string, p CountParams) (*Result, error) {
	return c.query(ctx, id, "/triangles/count", p)
}

// Enumerate runs (or fetches) the CONGEST triangle enumeration.
func (c *Client) Enumerate(ctx context.Context, id string, p EnumerateParams) (*Result, error) {
	return c.query(ctx, id, "/triangles/enumerate", p)
}

// TriangleCountDist runs (or fetches) the distributed triangle count:
// the server deals row ranges across its configured peer fleet, or runs
// the local 2D kernel when it has none. The count and checksum are
// bit-identical either way.
func (c *Client) TriangleCountDist(ctx context.Context, id string, p DistCountParams) (*Result, error) {
	return c.query(ctx, id, "/triangles/count-dist", p)
}

// PutFragment pushes a snapshot's whole encoded forward CSR
// (triangle.Forward.Fragment().Encode() bytes) into the server's
// fragment cache under the snapshot id. Fleet-internal; idempotent. A
// CSR over the server's cache bound reports ErrFragmentTooLarge.
func (c *Client) PutFragment(ctx context.Context, id string, data []byte) error {
	return c.do(ctx, http.MethodPut, "/v1/dist/fragments/"+id, "application/octet-stream", bytes.NewReader(data), nil)
}

// DistCount asks the server to count a batch of row ranges of the
// snapshot's resident CSR, whose rank space has ranks ranks, and returns
// one count per range, in order: the triangles whose lowest-rank vertex
// lies in that range. Fleet-internal; a CSR the server does not hold
// reports ErrFragmentMissing (push it with PutFragment and retry). A
// non-nil trace makes the server run the batch under a span of that
// trace, parented at trace.Parent, and return its spans for the caller
// to merge — which is how one dist job becomes a single cross-replica
// trace; with a nil trace the spans are nil.
func (c *Client) DistCount(ctx context.Context, id string, ranks int, ranges [][2]int32, trace *TraceRef) ([]int, []obs.Span, error) {
	body, err := jsonBody(distCountRequest{Snapshot: id, Ranks: ranks, Ranges: ranges, Trace: trace})
	if err != nil {
		return nil, nil, err
	}
	var res distCountResponse
	if err := c.do(ctx, http.MethodPost, "/v1/dist/count", "application/json", body, &res); err != nil {
		return nil, nil, err
	}
	if len(res.Counts) != len(ranges) {
		return nil, nil, fmt.Errorf("service: dist count answered %d counts for %d ranges", len(res.Counts), len(ranges))
	}
	return res.Counts, res.Spans, nil
}

// Trace fetches one trace from the server's debug endpoint.
func (c *Client) Trace(ctx context.Context, id string) (*TraceResponse, error) {
	var tr TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/debug/traces/"+id, "", nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Healthz fetches the build/version report from GET /healthz.
func (c *Client) Healthz(ctx context.Context) (*HealthResponse, error) {
	var h HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", "", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// ServerStats fetches the service counters (stats schema v2).
func (c *Client) ServerStats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
