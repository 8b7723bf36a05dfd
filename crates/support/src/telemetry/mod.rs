//! Unified observability: a sharded metrics registry and a per-request
//! trace/span API, zero-dependency and cheap enough for every hot path.
//!
//! The paper evaluates m.Site almost entirely through measurement —
//! per-stage adaptation latency (Fig. 6/7), render-cache effectiveness,
//! CPU overhead on a live deployment — so the serving path itself must
//! be observable. Two pieces provide that:
//!
//! - [`MetricsRegistry`] ([`metrics`]): monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s. A series (name +
//!   label set) is interned exactly once; callers hold an
//!   `Arc` handle and the hot path is a single atomic op — no lock, no
//!   hash lookup. The registry renders a stable text exposition for
//!   `GET /metrics` scrapes.
//! - [`Trace`]/[`Span`] ([`trace`]): each proxy request gets a
//!   seeded-deterministic trace id; pipeline stages, cache flights,
//!   resilience events, and worker-pool hops record timed spans with
//!   structured fields into a bounded [`TraceLog`] ring, recoverable
//!   per request via `GET /trace/<id>`.
//!
//! The [`Telemetry`] handle bundles one registry with one trace log so
//! a proxy, its HTTP server, its caches, session store and resilience
//! layer all publish into the same place. The registry is the only
//! counter store: components bump their interned handles directly, and
//! their stat structs (`ProxyStats`, `ServerStats`, `CacheStats`,
//! `SessionStoreStats`, `ResilienceStats`, ...) are *views* over it, so
//! counters can no longer drift apart.
//!
//! ```
//! use msite_support::telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let requests = telemetry.metrics.counter("requests_total", &[]);
//! requests.inc();
//! assert!(telemetry.metrics.render_text().contains("requests_total 1"));
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, SeriesSnapshot, LATENCY_MICROS_BOUNDS,
};
pub use trace::{EnteredTrace, Span, SpanRecord, Trace, TraceIdSeq, TraceLog};

use std::sync::Arc;

/// Response header carrying the request's trace id, so any client can
/// fetch the request's spans from `GET /trace/<id>`.
pub const TRACE_HEADER: &str = "x-msite-trace";

/// One registry plus one span ring: everything a serving stack (proxy,
/// HTTP server, resilience layer) publishes, shareable by `Clone`.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The metrics registry scraped by `GET /metrics`.
    pub metrics: Arc<MetricsRegistry>,
    /// The recent-span ring served by `GET /trace/<id>`.
    pub trace_log: Arc<TraceLog>,
}

impl Telemetry {
    /// A fresh registry and a trace ring with the default capacity
    /// ([`TraceLog::DEFAULT_CAPACITY`] completed spans).
    pub fn new() -> Telemetry {
        Telemetry {
            metrics: Arc::new(MetricsRegistry::new()),
            trace_log: Arc::new(TraceLog::new(TraceLog::DEFAULT_CAPACITY)),
        }
    }

    /// A telemetry handle with an explicit span-ring capacity.
    pub fn with_trace_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            metrics: Arc::new(MetricsRegistry::new()),
            trace_log: Arc::new(TraceLog::new(capacity)),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}
