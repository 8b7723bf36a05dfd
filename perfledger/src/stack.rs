//! The system under test, in one process: the forum origin behind its
//! own loopback `HttpServer`, and the m.Site proxy (the §4.3 forum spec)
//! behind a second one. The proxy reaches the origin through
//! [`OriginHop`], so every origin fetch is a real TCP hop the ledger can
//! time; the proxy server dispatches through [`ProxyTap`], which times
//! the proxy's in-process work per request while tracing is on.

use msite::proxy::{ProxyConfig, ProxyServer};
use msite_net::{
    http_request, ChunkProducer, ChunkSink, ChunkStream, HttpServer, Origin, OriginRef, Request,
    Response, ServerConfig, Status,
};
use msite_sites::{ForumConfig, ForumSite};
use msite_support::sync::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request header carrying the client's sequence number while tracing,
/// so the tap's in-process time pairs with the client's latency for the
/// same request.
pub const SEQ_HEADER: &str = "x-ledger-seq";

/// The proxy's view of the origin: `http_request` over loopback.
pub struct OriginHop {
    calls: AtomicU64,
    tracing: AtomicBool,
    fetch_times: Mutex<Vec<Duration>>,
}

impl OriginHop {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Fetch times recorded since the last call.
    pub fn take_fetch_times(&self) -> Vec<Duration> {
        std::mem::take(&mut *self.fetch_times.lock())
    }
}

impl Origin for OriginHop {
    fn handle(&self, request: &Request) -> Response {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let response = http_request(request)
            .unwrap_or_else(|e| Response::error(Status::BAD_GATEWAY, &e.to_string()));
        if self.tracing.load(Ordering::Relaxed) {
            self.fetch_times.lock().push(started.elapsed());
        }
        response
    }
}

/// Dispatches to the proxy. While tracing, it records the proxy's
/// in-process time for each request that carries [`SEQ_HEADER`]:
/// `handle` plus, for a streamed response, the chunk producer the server
/// runs while writing.
pub struct ProxyTap {
    proxy: Arc<ProxyServer>,
    tracing: AtomicBool,
    times: Arc<Mutex<HashMap<u64, Duration>>>,
}

impl ProxyTap {
    /// In-process times recorded since the last call, by sequence number.
    pub fn take_times(&self) -> HashMap<u64, Duration> {
        std::mem::take(&mut *self.times.lock())
    }
}

impl Origin for ProxyTap {
    fn handle(&self, request: &Request) -> Response {
        if !self.tracing.load(Ordering::Relaxed) {
            return self.proxy.handle(request);
        }
        let seq = request
            .headers
            .get(SEQ_HEADER)
            .and_then(|v| v.parse::<u64>().ok());
        let started = Instant::now();
        let mut response = self.proxy.handle(request);
        let handled = started.elapsed();
        let Some(seq) = seq else {
            return response;
        };
        match response.stream.as_ref().and_then(ChunkStream::take) {
            Some(inner) => {
                let times = Arc::clone(&self.times);
                let producer: ChunkProducer = Box::new(move |sink: &mut dyn ChunkSink| {
                    let produced = Instant::now();
                    inner(sink);
                    times.lock().insert(seq, handled + produced.elapsed());
                });
                response.stream = Some(ChunkStream::new(producer));
            }
            None => {
                self.times.lock().insert(seq, handled);
            }
        }
        response
    }
}

pub struct Stack {
    origin_server: HttpServer,
    proxy_server: HttpServer,
    pub proxy: Arc<ProxyServer>,
    pub hop: Arc<OriginHop>,
    pub tap: Arc<ProxyTap>,
}

impl Stack {
    /// Brings both servers up; `max_sessions` bounds the proxy's store.
    pub fn up(seed: u64, max_sessions: usize) -> std::io::Result<Stack> {
        let site = Arc::new(ForumSite::new(ForumConfig {
            host: "127.0.0.1".to_string(),
            ..ForumConfig::default()
        }));
        let origin_server = HttpServer::bind("127.0.0.1:0", Arc::clone(&site) as OriginRef)?;
        let mut spec = msite_bench::fixtures::forum_spec(&site);
        spec.page_url = format!("http://{}/index.php", origin_server.addr());

        let hop = Arc::new(OriginHop {
            calls: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            fetch_times: Mutex::new(Vec::new()),
        });
        let proxy = Arc::new(ProxyServer::new(
            spec,
            Arc::clone(&hop) as OriginRef,
            ProxyConfig {
                seed,
                max_sessions,
                ..ProxyConfig::default()
            },
        ));
        let tap = Arc::new(ProxyTap {
            proxy: Arc::clone(&proxy),
            tracing: AtomicBool::new(false),
            times: Arc::new(Mutex::new(HashMap::new())),
        });
        // One registry for proxy and server counters, so a `/metrics`
        // scrape shows both (as an operator deploys it).
        let proxy_server = HttpServer::bind_with_telemetry(
            "127.0.0.1:0",
            Arc::clone(&tap) as OriginRef,
            ServerConfig::default(),
            proxy.telemetry().clone(),
        )?;
        Ok(Stack {
            origin_server,
            proxy_server,
            proxy,
            hop,
            tap,
        })
    }

    pub fn proxy_addr(&self) -> SocketAddr {
        self.proxy_server.addr()
    }

    pub fn set_tracing(&self, on: bool) {
        self.hop.tracing.store(on, Ordering::Relaxed);
        self.tap.tracing.store(on, Ordering::Relaxed);
    }

    /// Stops both servers and joins their threads.
    pub fn down(self) {
        self.proxy_server.shutdown();
        self.origin_server.shutdown();
    }
}
