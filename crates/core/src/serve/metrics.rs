//! Sharded serving metrics, folded on scrape (DESIGN.md §2.9).
//!
//! The warm HTTP path must stay zero-allocation and contention-free, so
//! nothing on it touches shared mutable state: each worker owns one
//! cache-line-aligned [`MetricsShard`] of plain atomic counters plus
//! log2-nanosecond latency histograms per endpoint, and recording a request
//! is a handful of relaxed `fetch_add`s. All cross-shard work — summing
//! counters, merging histograms, extracting p50/p99, folding in each
//! session's [`SessionStats`] — happens only when someone *scrapes*
//! (`GET /metrics`, or [`Fleet::metrics_snapshot`] in process). Scrapes
//! allocate freely; they are off the hot path by construction.
//!
//! The scrape result is a [`MetricsSnapshot`], rendered to JSON by
//! [`MetricsSnapshot::to_json`] with the same hand-rolled writer the
//! committed `BENCH_*.json` artifacts use — the `h1` experiment asserts the
//! `/metrics` body equals the in-process snapshot byte-for-byte.

use super::session::SessionStats;
use locality_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram buckets: bucket `i` counts latencies with
/// `floor(log2(ns)) == i`, so 40 buckets span 1 ns to ~18 minutes.
pub const LATENCY_BUCKETS: usize = 40;

/// The endpoints the front-end distinguishes in its histograms.
///
/// `GET /metrics` itself is deliberately *not* an endpoint here: a scrape
/// must equal the in-process snapshot taken right after it, which is only
/// possible if serving the scrape mutates nothing it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Endpoint {
    /// `POST /solve` (single or batch; one record per HTTP request).
    Solve = 0,
    /// `GET /healthz`.
    Healthz = 1,
}

/// Endpoint count (array dimension for the per-shard histograms).
pub const ENDPOINTS: usize = 2;

const ENDPOINT_NAMES: [&str; ENDPOINTS] = ["solve", "healthz"];

/// One worker's private counters. Cache-line-aligned so two workers'
/// shards never share a line; all operations are relaxed — the counters
/// are statistics, not synchronization.
#[repr(align(64))]
#[derive(Debug)]
pub struct MetricsShard {
    /// Connections accepted by this worker.
    pub connections: AtomicU64,
    /// HTTP-level failures (malformed request line, oversized header,
    /// unknown route, …) answered with an HTTP error status.
    pub http_errors: AtomicU64,
    /// Request bytes consumed from sockets.
    pub bytes_read: AtomicU64,
    /// Response bytes written to sockets.
    pub bytes_written: AtomicU64,
    /// Requests per endpoint.
    requests: [AtomicU64; ENDPOINTS],
    /// Log2-nanosecond latency histogram per endpoint.
    latency: [[AtomicU64; LATENCY_BUCKETS]; ENDPOINTS],
}

impl Default for MetricsShard {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsShard {
    /// A zeroed shard.
    pub fn new() -> Self {
        Self {
            connections: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Record one served request: its endpoint and wall latency. Warm-path
    /// safe — three relaxed `fetch_add`s, no allocation, no locks.
    // audit: no-alloc
    pub fn record(&self, endpoint: Endpoint, latency_ns: u64) {
        let e = endpoint as usize;
        let bucket = (63 - latency_ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.requests[e].fetch_add(1, Ordering::Relaxed);
        self.latency[e][bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// One endpoint's folded view: request count and latency percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSnapshot {
    /// Endpoint name as it appears in the `/metrics` JSON.
    pub endpoint: &'static str,
    /// Requests served.
    pub requests: u64,
    /// Median latency in microseconds (log-bucket representative; `0.0`
    /// when no requests were recorded).
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds (same convention).
    pub p99_us: f64,
}

/// The folded HTTP-layer counters (absent from snapshots taken without a
/// live front-end).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpMetrics {
    /// Connections accepted across all workers.
    pub connections: u64,
    /// Requests answered with an HTTP error status.
    pub http_errors: u64,
    /// Total request bytes read.
    pub bytes_read: u64,
    /// Total response bytes written.
    pub bytes_written: u64,
    /// Per-endpoint request counts and latency percentiles.
    pub endpoints: Vec<EndpointSnapshot>,
}

/// Everything `/metrics` reports: session-layer cache/solver counters
/// folded across sessions, plus the HTTP layer when one is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions folded into this snapshot.
    pub sessions: u64,
    /// Requests received by the solve layer.
    pub requests: u64,
    /// Requests answered from the response cache.
    pub response_hits: u64,
    /// Requests that ran a solver.
    pub solver_runs: u64,
    /// Decompositions constructed.
    pub decompositions_built: u64,
    /// Consumer requests that reused a cached decomposition.
    pub decomposition_hits: u64,
    /// Power-graph reduction plans constructed.
    pub power_plans_built: u64,
    /// SLOCAL requests that reused a cached reduction plan.
    pub power_plan_hits: u64,
    /// Decompose requests degraded by the soft deadline (PR 8 provenance).
    pub degraded: u64,
    /// Response-cache entries dropped by graph edits.
    pub responses_dropped: u64,
    /// The HTTP layer's folded counters, when a front-end is attached.
    pub http: Option<HttpMetrics>,
}

/// The representative latency of log2 bucket `i`, in microseconds: the
/// bucket's geometric midpoint `1.5 × 2^i` ns.
fn bucket_us(i: usize) -> f64 {
    1.5 * (1u64 << i) as f64 / 1_000.0
}

/// The `q`-quantile of a log-bucket histogram holding `total` samples.
fn quantile_us(hist: &[u64; LATENCY_BUCKETS], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in hist.iter().enumerate() {
        cum += c;
        if cum >= target {
            return bucket_us(i);
        }
    }
    bucket_us(LATENCY_BUCKETS - 1)
}

impl MetricsSnapshot {
    /// Fold session-layer counters (no HTTP layer).
    pub fn from_stats(stats: impl IntoIterator<Item = SessionStats>) -> Self {
        let mut snap = Self {
            sessions: 0,
            requests: 0,
            response_hits: 0,
            solver_runs: 0,
            decompositions_built: 0,
            decomposition_hits: 0,
            power_plans_built: 0,
            power_plan_hits: 0,
            degraded: 0,
            responses_dropped: 0,
            http: None,
        };
        for s in stats {
            snap.sessions += 1;
            snap.requests += s.requests;
            snap.response_hits += s.response_hits;
            snap.solver_runs += s.solver_runs;
            snap.decompositions_built += s.decompositions_built;
            snap.decomposition_hits += s.decomposition_hits;
            snap.power_plans_built += s.power_plans_built;
            snap.power_plan_hits += s.power_plan_hits;
            snap.degraded += s.degraded;
            snap.responses_dropped += s.responses_dropped;
        }
        snap
    }

    /// Fold the per-worker shards into [`HttpMetrics`] and attach them.
    pub fn with_shards<'a>(mut self, shards: impl IntoIterator<Item = &'a MetricsShard>) -> Self {
        let mut http = HttpMetrics {
            connections: 0,
            http_errors: 0,
            bytes_read: 0,
            bytes_written: 0,
            endpoints: Vec::with_capacity(ENDPOINTS),
        };
        let mut requests = [0u64; ENDPOINTS];
        let mut latency = [[0u64; LATENCY_BUCKETS]; ENDPOINTS];
        for shard in shards {
            http.connections += shard.connections.load(Ordering::Relaxed);
            http.http_errors += shard.http_errors.load(Ordering::Relaxed);
            http.bytes_read += shard.bytes_read.load(Ordering::Relaxed);
            http.bytes_written += shard.bytes_written.load(Ordering::Relaxed);
            for e in 0..ENDPOINTS {
                requests[e] += shard.requests[e].load(Ordering::Relaxed);
                for (acc, bucket) in latency[e].iter_mut().zip(&shard.latency[e]) {
                    *acc += bucket.load(Ordering::Relaxed);
                }
            }
        }
        for e in 0..ENDPOINTS {
            http.endpoints.push(EndpointSnapshot {
                endpoint: ENDPOINT_NAMES[e],
                requests: requests[e],
                p50_us: quantile_us(&latency[e], requests[e], 0.50),
                p99_us: quantile_us(&latency[e], requests[e], 0.99),
            });
        }
        self.http = Some(http);
        self
    }

    /// The snapshot as a [`Json`] tree (the `s1`/`r1` artifacts embed this
    /// under a `"metrics"` key).
    pub fn to_json_value(&self) -> Json {
        let mut pairs = vec![
            ("sessions", Json::Int(self.sessions as i64)),
            ("requests", Json::Int(self.requests as i64)),
            ("response_hits", Json::Int(self.response_hits as i64)),
            ("solver_runs", Json::Int(self.solver_runs as i64)),
            (
                "decompositions_built",
                Json::Int(self.decompositions_built as i64),
            ),
            (
                "decomposition_hits",
                Json::Int(self.decomposition_hits as i64),
            ),
            (
                "power_plans_built",
                Json::Int(self.power_plans_built as i64),
            ),
            ("power_plan_hits", Json::Int(self.power_plan_hits as i64)),
            ("degraded", Json::Int(self.degraded as i64)),
            (
                "responses_dropped",
                Json::Int(self.responses_dropped as i64),
            ),
        ];
        if let Some(http) = &self.http {
            pairs.push((
                "http",
                Json::object(vec![
                    ("connections", Json::Int(http.connections as i64)),
                    ("http_errors", Json::Int(http.http_errors as i64)),
                    ("bytes_read", Json::Int(http.bytes_read as i64)),
                    ("bytes_written", Json::Int(http.bytes_written as i64)),
                    (
                        "endpoints",
                        Json::Array(
                            http.endpoints
                                .iter()
                                .map(|e| {
                                    Json::object(vec![
                                        ("endpoint", Json::Str(e.endpoint.to_string())),
                                        ("requests", Json::Int(e.requests as i64)),
                                        ("p50_us", Json::Float(e.p50_us)),
                                        ("p99_us", Json::Float(e.p99_us)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Json::object(pairs)
    }

    /// The `/metrics` response body: [`MetricsSnapshot::to_json_value`]
    /// pretty-printed.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_recording_folds_into_percentiles() {
        let shards = [MetricsShard::new(), MetricsShard::new()];
        // 99 fast requests (~1 µs) on shard 0, one slow (~1 ms) on shard 1.
        for _ in 0..99 {
            shards[0].record(Endpoint::Solve, 1_000);
        }
        shards[1].record(Endpoint::Solve, 1_000_000);
        shards[0].record(Endpoint::Healthz, 500);
        shards[0].connections.fetch_add(3, Ordering::Relaxed);
        shards[1].http_errors.fetch_add(1, Ordering::Relaxed);

        let snap = MetricsSnapshot::from_stats([]).with_shards(&shards);
        let http = snap.http.as_ref().unwrap();
        assert_eq!(http.connections, 3);
        assert_eq!(http.http_errors, 1);
        let solve = &http.endpoints[Endpoint::Solve as usize];
        assert_eq!(solve.requests, 100);
        // p50 sits in the ~1 µs bucket, p99 at least an order of magnitude
        // beyond it (dominated by the single ~1 ms outlier at rank 100;
        // target rank for p99 is 99, still in the fast bucket — use p50/p99
        // spread via the exact bucket values instead).
        assert!(solve.p50_us < 2.0, "p50 {} µs", solve.p50_us);
        assert!(solve.p99_us >= solve.p50_us);
        let health = &http.endpoints[Endpoint::Healthz as usize];
        assert_eq!(health.requests, 1);
        assert!(health.p50_us > 0.0);
    }

    #[test]
    fn percentiles_hit_the_outlier_bucket() {
        let mut hist = [0u64; LATENCY_BUCKETS];
        hist[10] = 90; // ~1 µs
        hist[20] = 10; // ~1 ms
        assert_eq!(quantile_us(&hist, 100, 0.50), bucket_us(10));
        assert_eq!(quantile_us(&hist, 100, 0.99), bucket_us(20));
        assert_eq!(quantile_us(&hist, 0, 0.99), 0.0);
    }

    #[test]
    fn session_stats_fold() {
        let a = SessionStats {
            requests: 10,
            response_hits: 7,
            solver_runs: 3,
            decompositions_built: 1,
            degraded: 1,
            ..SessionStats::default()
        };
        let b = SessionStats {
            requests: 5,
            responses_dropped: 2,
            ..SessionStats::default()
        };
        let snap = MetricsSnapshot::from_stats([a, b]);
        assert_eq!(snap.sessions, 2);
        assert_eq!(snap.requests, 15);
        assert_eq!(snap.response_hits, 7);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.responses_dropped, 2);
        assert!(snap.http.is_none());
        let body = snap.to_json();
        assert!(body.contains("\"requests\": 15"));
        assert!(!body.contains("\"http\""));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let shards = [MetricsShard::new()];
        shards[0].record(Endpoint::Solve, 42_000);
        let snap = MetricsSnapshot::from_stats([SessionStats {
            requests: 1,
            solver_runs: 1,
            ..SessionStats::default()
        }])
        .with_shards(&shards);
        let parsed = Json::parse(&snap.to_json()).unwrap();
        assert_eq!(
            parsed.get("requests").and_then(Json::as_int),
            Some(1),
            "scrape body parses back"
        );
        let eps = parsed
            .get("http")
            .and_then(|h| h.get("endpoints"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(eps.len(), ENDPOINTS);
        assert_eq!(eps[0].get("endpoint").and_then(Json::as_str), Some("solve"));
        assert_eq!(eps[0].get("requests").and_then(Json::as_int), Some(1));
    }
}
