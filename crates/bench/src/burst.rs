//! The same-page burst experiment: N clients hit the same *cold* entry
//! page at the same instant. Before the single-flight layer each client
//! paid its own full pipeline run (the cache stampede); with it, one
//! leader renders and every other client coalesces onto that flight.
//! A second probe measures what lock striping buys on disjoint-key
//! churn by comparing a single-shard cache against the striped default.

use crate::fixtures;
use msite::cache::{CacheConfig, RenderCache};
use msite::proxy::{ProxyConfig, ProxyServer};
use msite_net::{Origin, OriginRef, Request};
use msite_support::thread::fan_out;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Result of one same-page burst.
#[derive(Debug, Clone)]
pub struct BurstResult {
    /// Concurrent clients in the burst.
    pub clients: usize,
    /// Full pipeline renders the burst triggered. The stampede fix
    /// makes this exactly 1 regardless of `clients`.
    pub renders: u64,
    /// Clients that shared the leader's in-flight render
    /// (`clients - 1` when coalescing works).
    pub coalesced: u64,
    /// Slowest client latency inside the burst.
    pub slowest_wait: Duration,
    /// Latency of a lone client against an equally cold proxy — the
    /// no-contention baseline the burst should stay close to.
    pub single_client: Duration,
}

/// A forum proxy that has *not* served its entry page yet, so the first
/// request — or burst of requests — pays the cold render.
fn cold_forum_proxy() -> Arc<ProxyServer> {
    let site = fixtures::forum();
    Arc::new(ProxyServer::new(
        fixtures::forum_spec(&site),
        Arc::clone(&site) as OriginRef,
        ProxyConfig::default(),
    ))
}

/// Runs the burst: one lone cold request for the baseline, then
/// `clients` simultaneous cold requests against a fresh proxy.
pub fn run(clients: usize) -> BurstResult {
    let entry = Request::get("http://p/m/forum/").expect("static url");

    // Baseline: one client, cold proxy.
    let solo = cold_forum_proxy();
    let start = Instant::now();
    let response = solo.handle(&entry);
    let single_client = start.elapsed();
    assert!(response.status.is_success(), "solo request failed");

    // The burst: everyone released by the barrier at once.
    let proxy = cold_forum_proxy();
    let gate = Barrier::new(clients);
    let latencies = fan_out(clients, |_| {
        let request = Request::get("http://p/m/forum/").expect("static url");
        gate.wait();
        let start = Instant::now();
        let response = proxy.handle(&request);
        assert!(response.status.is_success(), "burst request failed");
        start.elapsed()
    });

    BurstResult {
        clients,
        renders: proxy.stats().full_renders,
        coalesced: proxy.cache().stats().coalesced,
        slowest_wait: latencies.iter().copied().max().unwrap_or_default(),
        single_client,
    }
}

/// Result of the lock-striping contention probe.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Worker threads churning the cache.
    pub threads: usize,
    /// `get` operations per thread.
    pub ops: usize,
    /// Shards in the striped cache under test.
    pub shards: usize,
    /// Slowest-thread wall clock on a single-shard cache (the seed's
    /// one-big-mutex design).
    pub single_shard: Duration,
    /// Slowest-thread wall clock on the striped cache.
    pub striped: Duration,
}

impl ContentionResult {
    /// How many times faster the striped cache finished.
    pub fn speedup(&self) -> f64 {
        self.single_shard.as_secs_f64() / self.striped.as_secs_f64().max(1e-9)
    }
}

/// Times `threads` workers doing `ops` disjoint-key lookups each,
/// first against a deliberately single-shard cache, then against the
/// striped default. Reported, not asserted: the delta is machine- and
/// scheduler-dependent.
pub fn shard_contention(threads: usize, ops: usize) -> ContentionResult {
    let run_on = |cache: &RenderCache| -> Duration {
        const KEYS_PER_THREAD: usize = 64;
        for t in 0..threads {
            for k in 0..KEYS_PER_THREAD {
                cache.put(&format!("t{t}-k{k}"), b"v".to_vec(), None, Duration::ZERO);
            }
        }
        let gate = Barrier::new(threads);
        let elapsed = fan_out(threads, |t| {
            let keys: Vec<String> = (0..KEYS_PER_THREAD).map(|k| format!("t{t}-k{k}")).collect();
            gate.wait();
            let start = Instant::now();
            for i in 0..ops {
                std::hint::black_box(cache.get(&keys[i % KEYS_PER_THREAD]));
            }
            start.elapsed()
        });
        elapsed.into_iter().max().unwrap_or_default()
    };

    let single = RenderCache::new(CacheConfig {
        shards: Some(1),
        ..CacheConfig::with_capacity(4096)
    });
    let striped = RenderCache::new(CacheConfig::with_capacity(4096));
    ContentionResult {
        threads,
        ops,
        shards: striped.shard_count(),
        single_shard: run_on(&single),
        striped: run_on(&striped),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_of_eight_renders_once() {
        let result = run(8);
        assert_eq!(result.renders, 1, "stampede: {} renders", result.renders);
        assert_eq!(result.coalesced, 7);
    }

    #[test]
    fn contention_probe_reports_both_arms() {
        let result = shard_contention(4, 2_000);
        assert!(result.shards > 1, "default 4096-entry cache must stripe");
        assert!(result.single_shard > Duration::ZERO);
        assert!(result.striped > Duration::ZERO);
    }
}
