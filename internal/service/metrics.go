// GET /metrics: the stats schema (v3) re-rendered as Prometheus text
// exposition, plus the tracer's always-on per-phase aggregates. Every
// field of Stats appears here under a dexpander_-prefixed series (the
// README's Observability section carries the full mapping), so a
// scrape and /v1/stats never disagree about what the service counted.

package service

import (
	"maps"
	"net/http"
	"slices"

	"dexpander/internal/obs"
)

// promContentType is the text exposition format ValidateProm parses.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// histSeconds converts a stats histogram observed in microseconds into
// the renderer shape, scaling bounds and sum to seconds (the Prometheus
// base unit for time).
func histSeconds(h *Hist) obs.HistogramData {
	d := obs.HistogramData{Le: make([]float64, len(h.Le)), Counts: h.Counts, Sum: float64(h.Sum) / 1e6}
	for i, le := range h.Le {
		d.Le[i] = float64(le) / 1e6
	}
	return d
}

// histRaw converts a unitless stats histogram (e.g. queue depth).
func histRaw(h *Hist) obs.HistogramData {
	d := obs.HistogramData{Le: make([]float64, len(h.Le)), Counts: h.Counts, Sum: float64(h.Sum)}
	for i, le := range h.Le {
		d.Le[i] = float64(le)
	}
	return d
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", promContentType)
	p := obs.NewProm(w)

	// Schema and pool/registry gauges.
	p.Gauge("dexpander_stats_schema_version", "Version of the /v1/stats JSON schema this exposition mirrors.", float64(st.SchemaVersion))
	p.Gauge("dexpander_snapshots", "Registered graph snapshots.", float64(st.Snapshots))
	p.Gauge("dexpander_cache_entries", "Resident result-cache entries.", float64(st.CacheEntries))
	p.Gauge("dexpander_in_flight", "Computations admitted and not yet completed.", float64(st.InFlight))
	p.Gauge("dexpander_workers", "Compute pool workers.", float64(st.Workers))
	p.Gauge("dexpander_queue_cap", "Compute queue capacity.", float64(st.QueueCap))
	p.Gauge("dexpander_queue_depth", "Flights queued and not yet running.", float64(st.QueueDepth))
	p.Gauge("dexpander_max_results", "Result cache capacity.", float64(st.MaxResults))

	// Service-wide counters.
	p.Counter("dexpander_computations_total", "Flights that ran on the compute pool.", float64(st.Computations))
	p.Counter("dexpander_hits_total", "Queries served from the completed-result cache.", float64(st.Hits))
	p.Counter("dexpander_joins_total", "Queries that joined an in-flight computation.", float64(st.Joins))
	p.Counter("dexpander_busy_total", "Queries rejected with busy backpressure.", float64(st.Busy))
	p.Counter("dexpander_snapshot_evictions_total", "Snapshot registry evictions.", float64(st.SnapshotEvictions))
	p.Counter("dexpander_cache_evictions_total", "Result cache evictions.", float64(st.CacheEvictions))
	p.Counter("dexpander_cancellations_total", "Flights canceled by their last abandoning waiter.", float64(st.Cancellations))
	p.Counter("dexpander_quota_rejections_total", "Queries rejected by a tenant quota.", float64(st.QuotaRejections))

	// Latency and queue-depth histograms.
	if st.ComputeLatencyUS != nil {
		p.Histogram("dexpander_compute_latency_seconds", "Wall time of completed computations.", histSeconds(st.ComputeLatencyUS))
	}
	if st.QueueDepthHist != nil {
		p.Histogram("dexpander_queue_depth_observed", "Queue depth observed at each admission.", histRaw(st.QueueDepthHist))
	}

	// v3 fragment cache and replica-side dist counters.
	p.Counter("dexpander_fragment_stores_total", "Snapshot CSRs admitted to the replica fragment cache.", float64(st.FragmentStores))
	p.Counter("dexpander_fragment_hits_total", "Dist-count requests served from a resident snapshot CSR.", float64(st.FragmentHits))
	p.Gauge("dexpander_fragment_bytes", "Resident fragment cache bytes.", float64(st.FragmentBytes))
	p.Counter("dexpander_fragment_evictions_total", "Fragment cache evictions.", float64(st.FragmentEvictions))
	p.Counter("dexpander_dist_triples_total", "Row-range tasks this replica counted for remote coordinators.", float64(st.DistTriples))

	// Per-tenant series (name-major so all samples of one name stay
	// adjacent, label values sorted so the exposition is deterministic).
	tenants := slices.Sorted(maps.Keys(st.Tenants))
	emitTenant := func(name, help string, get func(TenantStats) float64, counter bool) {
		for _, tn := range tenants {
			v := get(st.Tenants[tn])
			if counter {
				p.Counter(name, help, v, "tenant", tn)
			} else {
				p.Gauge(name, help, v, "tenant", tn)
			}
		}
	}
	emitTenant("dexpander_tenant_queries_total", "Query calls attributed to the tenant.", func(t TenantStats) float64 { return float64(t.Queries) }, true)
	emitTenant("dexpander_tenant_computations_total", "Flights the tenant admitted that ran.", func(t TenantStats) float64 { return float64(t.Computations) }, true)
	emitTenant("dexpander_tenant_hits_total", "Tenant cache hits.", func(t TenantStats) float64 { return float64(t.Hits) }, true)
	emitTenant("dexpander_tenant_joins_total", "Tenant joins of in-flight computations.", func(t TenantStats) float64 { return float64(t.Joins) }, true)
	emitTenant("dexpander_tenant_busy_total", "Tenant busy rejections.", func(t TenantStats) float64 { return float64(t.Busy) }, true)
	emitTenant("dexpander_tenant_quota_rejections_total", "Tenant quota rejections.", func(t TenantStats) float64 { return float64(t.QuotaRejections) }, true)
	emitTenant("dexpander_tenant_cancellations_total", "Flights canceled with the tenant as last waiter.", func(t TenantStats) float64 { return float64(t.Cancellations) }, true)
	emitTenant("dexpander_tenant_snapshot_refs", "Live snapshot references held by the tenant.", func(t TenantStats) float64 { return float64(t.SnapshotRefs) }, false)
	emitTenant("dexpander_tenant_in_flight", "Tenant computations in flight.", func(t TenantStats) float64 { return float64(t.InFlight) }, false)

	// Per-backend decomposition series.
	backends := slices.Sorted(maps.Keys(st.Decompose))
	for _, b := range backends {
		p.Counter("dexpander_decompose_requests_total", "Decomposition computations run by the backend.", float64(st.Decompose[b].Requests), "backend", b)
	}
	for _, b := range backends {
		if h := st.Decompose[b].LatencyUS; h != nil {
			p.Histogram("dexpander_decompose_latency_seconds", "Wall time of decomposition computations by backend.", histSeconds(h), "backend", b)
		}
	}

	// Per-peer coordinator series.
	peers := slices.Sorted(maps.Keys(st.DistPeers))
	emitPeer := func(name, help string, get func(*PeerDistStats) float64) {
		for _, pb := range peers {
			p.Counter(name, help, get(st.DistPeers[pb]), "peer", pb)
		}
	}
	emitPeer("dexpander_peer_triples_total", "Row-range tasks the peer answered for this coordinator.", func(d *PeerDistStats) float64 { return float64(d.Triples) })
	emitPeer("dexpander_peer_pushes_total", "Snapshot CSR uploads to the peer.", func(d *PeerDistStats) float64 { return float64(d.Pushes) })
	emitPeer("dexpander_peer_push_bytes_total", "Encoded bytes of snapshot CSRs pushed to the peer.", func(d *PeerDistStats) float64 { return float64(d.PushBytes) })
	emitPeer("dexpander_peer_failures_total", "Jobs in which a rejected push or a transport failure marked the peer dead.", func(d *PeerDistStats) float64 { return float64(d.Failures) })

	// Tracer ring and always-on phase aggregates.
	if tr := s.cfg.Tracer; tr != nil {
		total, evicted := tr.Counts()
		p.Gauge("dexpander_trace_ring_capacity", "Finished spans the trace ring can hold.", float64(tr.Capacity()))
		p.Gauge("dexpander_trace_sample_ratio", "Fraction of traces sampled into the ring.", tr.Sample())
		p.Counter("dexpander_trace_spans_total", "Spans ever written to the ring.", float64(total))
		p.Counter("dexpander_trace_spans_evicted_total", "Ring spans overwritten by newer ones.", float64(evicted))
		phases := tr.Phases()
		names := slices.Sorted(maps.Keys(phases))
		for _, n := range names {
			p.Counter("dexpander_phase_total", "Spans finished, by phase name (advances regardless of sampling).", float64(phases[n].Count), "phase", n)
		}
		for _, n := range names {
			p.Counter("dexpander_phase_seconds_total", "Total span duration, by phase name.", float64(phases[n].TotalNS)/1e9, "phase", n)
		}
	}

	if err := p.Err(); err != nil {
		// Too late for an error envelope: headers and a partial body are
		// out. The scrape fails validation, which is the signal.
		return
	}
}
