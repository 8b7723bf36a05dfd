//! Progressive (chunked) entry delivery.
//!
//! A client that sends `x-msite-stream: chunked` on `GET /` gets the
//! entry page over chunked transfer-encoding: the proxy fetches the
//! origin page up front (so origin failures keep their batch status
//! codes), then returns a [`Response`] carrying a deferred
//! [`ChunkProducer`]. The transport runs the producer *while writing*:
//! the adaptation pipeline executes in streaming mode
//! ([`adapt_streaming`]), the entry snapshot + imagemap page is flushed
//! as the first chunk the moment it is built, and subpage/image
//! artifacts are stored into the shared cache and public directory as
//! the parallel emit workers finish them — time-to-first-byte is the
//! entry-build time, not the whole-bundle time.
//!
//! The byte-concatenation of all chunks is exactly the batch entry
//! body; only the framing (and the client's TTFB) differs. In-process
//! consumers drain the stream with [`Response::into_collected`].
//!
//! Streamed rebuilds go through the cache's single-flight layer like
//! batch ones: [`RenderCache::lead_or_join`] either answers from the
//! cache or another request's flight, or hands this request the leader
//! handle, [`ExternalFlight`]. The producer runs after `handle` returns,
//! so the handle travels into it and is
//! [`complete`](ExternalFlight::complete)d when the entry is built. A
//! failed origin fetch [`fail`](ExternalFlight::fail)s the flight, as a
//! batch leader does, so waiters share the error instead of re-leading
//! against a dead origin; a pipeline error after the response committed
//! abandons it, releasing the waiters to retry. Concurrent cold requests
//! — streamed or batch — join that one flight instead of rendering
//! again; exactly one render runs per cold entry.

use super::handlers::entry_key;
use super::observability::publish_stage_timings_to;
use super::ProxyServer;
use crate::ajax::AjaxRegistry;
use crate::attributes::AdaptationSpec;
use crate::cache::{Claim, ExternalFlight, RenderCache};
use crate::error::ProxyError;
use crate::pipeline::{adapt_streaming, EmitUnit, PipelineContext, PipelineReport};
use crate::session::{Session, SessionFs};
use msite_net::resilience::Deadline;
use msite_net::{ChunkProducer, ChunkSink, Request, Response};
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use msite_support::telemetry::{Counter, Histogram, MetricsRegistry, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request header that opts a `GET /` into progressive delivery; the
/// only recognized value is `chunked`.
pub const STREAM_HEADER: &str = "x-msite-stream";

/// True when the request opted into progressive delivery.
pub(super) fn wants_stream(request: &Request) -> bool {
    request
        .headers
        .get(STREAM_HEADER)
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false)
}

/// Everything a streamed entry rebuild needs to own: the producer runs
/// on the transport's writer thread after `handle` has returned, so it
/// cannot borrow the proxy.
struct StreamJob {
    spec: AdaptationSpec,
    ctx: PipelineContext,
    page_text: String,
    entry_ttl: Option<Duration>,
    /// Single-flight leadership for the entry, claimed before the
    /// response was returned; completed with the built entry (waiters
    /// get the bytes) or dropped on a pipeline error (waiters retry).
    flight: ExternalFlight,
    cache: Arc<RenderCache>,
    fs: Arc<SessionFs>,
    shared_ajax: Arc<Mutex<Option<AjaxRegistry>>>,
    wants_cookie_clear: Arc<Mutex<bool>>,
    last_entry_report: Arc<Mutex<Option<PipelineReport>>>,
    registry: Arc<MetricsRegistry>,
    full_renders: Arc<Counter>,
    lightweight: Arc<Counter>,
    ttfb_micros: Arc<Histogram>,
    arrived: Instant,
}

impl StreamJob {
    /// Runs the adaptation pipeline in streaming mode against the sink:
    /// entry page as the first chunk, artifacts stored as workers
    /// finish, bookkeeping published at the end.
    fn run(self, sink: &mut dyn ChunkSink) {
        let start = Instant::now();
        let trace = self.ctx.trace.clone();
        let record_chunk = |kind: &str, bytes: usize, started: Instant| {
            if let Some(trace) = &trace {
                trace.log().record_raw(
                    trace.id(),
                    "stream.chunk",
                    started,
                    started.elapsed(),
                    vec![
                        ("kind".to_string(), kind.to_string()),
                        ("bytes".to_string(), bytes.to_string()),
                    ],
                );
            }
        };
        let sink = Mutex::new(sink);
        let mut on_unit = |unit: EmitUnit| match unit {
            EmitUnit::Entry(html) => {
                let chunk_started = Instant::now();
                sink.lock().chunk(html.as_bytes());
                // TTFB: request arrival to the first flushed chunk.
                self.ttfb_micros
                    .observe(self.arrived.elapsed().as_micros() as u64);
                record_chunk("entry", html.len(), chunk_started);
            }
            EmitUnit::Image(image) => {
                // Same placement store_bundle uses for a shared
                // (session-less) run: TTL'd images into the public
                // cache, the rest into the public directory.
                let chunk_started = Instant::now();
                let size = image.bytes.len();
                match image.cache_ttl {
                    Some(ttl) => self.cache.put(
                        &format!("img:{}", image.name),
                        image.bytes,
                        Some(ttl),
                        start.elapsed(),
                    ),
                    None => self.fs.write(
                        &SessionFs::public_path(&format!("img/{}", image.name)),
                        image.bytes,
                    ),
                }
                record_chunk("image", size, chunk_started);
            }
            EmitUnit::Subpage(file) => {
                // Shared entry runs never store subpage files (they are
                // per-session artifacts); the unit still marks the
                // worker's completion on the trace timeline.
                record_chunk("subpage", file.html.len(), Instant::now());
            }
        };
        match adapt_streaming(&self.spec, &self.page_text, &self.ctx, &mut on_unit) {
            Ok((bundle, report)) => {
                if bundle.stats.browser_used {
                    self.full_renders.inc();
                } else {
                    self.lightweight.inc();
                }
                publish_stage_timings_to(&self.registry, &report);
                // Publishing through the flight (rather than a raw
                // `put`) inserts the entry AND wakes every request that
                // joined this rebuild with the same bytes.
                self.flight.complete(
                    Bytes::from(bundle.entry_html),
                    self.entry_ttl,
                    start.elapsed(),
                );
                *self.shared_ajax.lock() = Some(bundle.ajax.clone());
                *self.wants_cookie_clear.lock() = bundle.wants_cookie_clear;
                *self.last_entry_report.lock() = Some(report);
            }
            Err(err) => {
                // Headers are already on the wire; the best we can do
                // is a diagnosable body. Spec errors are caught by the
                // admin tool long before a streamed request sees them.
                // Dropping `self.flight` here abandons the flight, so
                // joined waiters retry instead of hanging.
                sink.lock()
                    .chunk(format!("<!-- msite adaptation failed: {err} -->").as_bytes());
            }
        }
    }
}

impl ProxyServer {
    /// `GET /` with `x-msite-stream: chunked`: progressive entry
    /// delivery. Cache hits stream the cached entry as a single chunk;
    /// misses lead the entry rebuild's flight — or join the one already
    /// in flight (led by either a batch or a streamed request) — so a
    /// cold stampede of streamed requests runs exactly one pipeline. The
    /// leader fetches the origin page up front (failures keep their
    /// batch status codes, including the serve-stale degradation) and
    /// defers the pipeline run to the transport's writer via the
    /// response's chunk producer.
    pub(super) fn streamed_entry(
        &self,
        session: &Arc<Mutex<Session>>,
        deadline: Deadline,
    ) -> Result<Response, ProxyError> {
        let arrived = Instant::now();
        self.metrics.streamed_responses.inc();
        let key = entry_key(None);
        let stale =
            |value, age| self.mark_stale(self.stream_bytes(value, arrived, "entry-stale"), age);
        let degrade = |err| {
            self.stale_fallback(&key, err)
                .map(|(value, age)| stale(value, age))
        };
        let flight = match self
            .cache
            .lead_or_join::<ProxyError>(&key, Some(deadline.remaining()))
        {
            Claim::Led(flight) => flight,
            Claim::Hit(entry) => {
                self.metrics.lightweight.inc();
                return Ok(self.stream_bytes(entry, arrived, "entry-cached"));
            }
            Claim::Shared(entry) => {
                self.metrics.renders_coalesced.inc();
                return Ok(self.stream_bytes(entry, arrived, "entry-coalesced"));
            }
            Claim::Stale { value, age } => return Ok(stale(value, age)),
            Claim::TimedOut => return Err(ProxyError::DeadlineExceeded),
            Claim::Failed(err) => return degrade(err),
        };

        // Leader path. Fetch before committing to a 200 so origin
        // failures keep their batch-path status codes and stale
        // fallback; failing the flight hands waiters the same error.
        let page = match self.fetch_page(session, deadline) {
            Ok(page) => page,
            Err(err) => {
                flight.fail(err.clone());
                return degrade(err);
            }
        };

        let job = StreamJob {
            spec: self.spec.clone(),
            ctx: self.pipeline_context(),
            page_text: page.body_text(),
            entry_ttl: self
                .spec
                .snapshot
                .as_ref()
                .map(|s| Duration::from_secs(s.cache_ttl_secs)),
            flight,
            cache: Arc::clone(&self.cache),
            fs: Arc::clone(&self.fs),
            shared_ajax: Arc::clone(&self.shared_ajax),
            wants_cookie_clear: Arc::clone(&self.wants_cookie_clear),
            last_entry_report: Arc::clone(&self.last_entry_report),
            registry: Arc::clone(&self.telemetry.metrics),
            full_renders: Arc::clone(&self.metrics.full_renders),
            lightweight: Arc::clone(&self.metrics.lightweight),
            ttfb_micros: Arc::clone(&self.metrics.ttfb_micros),
            arrived,
        };
        let producer: ChunkProducer = Box::new(move |sink| job.run(sink));
        Ok(Response::streaming("text/html; charset=utf-8", producer))
    }

    /// Wraps already-built entry bytes in a single-chunk stream,
    /// observing TTFB at the flush and recording the chunk span.
    fn stream_bytes(&self, entry: Bytes, arrived: Instant, kind: &'static str) -> Response {
        let ttfb = Arc::clone(&self.metrics.ttfb_micros);
        let trace = Trace::current();
        let producer: ChunkProducer = Box::new(move |sink| {
            let chunk_started = Instant::now();
            sink.chunk(&entry);
            ttfb.observe(arrived.elapsed().as_micros() as u64);
            if let Some(trace) = &trace {
                trace.log().record_raw(
                    trace.id(),
                    "stream.chunk",
                    chunk_started,
                    chunk_started.elapsed(),
                    vec![
                        ("kind".to_string(), kind.to_string()),
                        ("bytes".to_string(), entry.len().to_string()),
                    ],
                );
            }
        });
        Response::streaming("text/html; charset=utf-8", producer)
    }
}
