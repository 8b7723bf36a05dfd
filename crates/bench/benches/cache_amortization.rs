//! Ablation bench: the shared render cache on vs. off — the paper's
//! "server-side caching to amortize rendering costs across many client
//! sessions".

use msite::cache::{CacheConfig, RenderCache};
use msite_bench::fixtures;
use msite_net::{Origin, OriginRef, Request};
use msite_support::benchkit::Criterion;
use msite_support::{criterion_group, criterion_main};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_cache(c: &mut Criterion) {
    let site = fixtures::forum();

    let mut group = c.benchmark_group("cache_amortization");
    group.sample_size(10);

    // Cache ON (normal proxy): entry requests after warmup hit the cache.
    let proxy = fixtures::forum_proxy(&site, Duration::ZERO);
    group.bench_function("entry_with_cache", |b| {
        b.iter(|| {
            black_box(
                proxy
                    .handle(&Request::get("http://p/m/forum/").unwrap())
                    .body
                    .len(),
            )
        })
    });

    // Cache OFF equivalent: a zero-TTL snapshot forces a rebuild per hit.
    let mut uncached_spec = fixtures::forum_spec(&site);
    if let Some(snap) = &mut uncached_spec.snapshot {
        snap.cache_ttl_secs = 0;
    }
    let uncached = Arc::new(msite::proxy::ProxyServer::new(
        uncached_spec,
        Arc::clone(&site) as OriginRef,
        msite::proxy::ProxyConfig::default(),
    ));
    group.measurement_time(Duration::from_secs(10));
    group.bench_function("entry_without_cache", |b| {
        b.iter(|| {
            black_box(
                uncached
                    .handle(&Request::get("http://p/m/forum/").unwrap())
                    .body
                    .len(),
            )
        })
    });
    group.finish();

    // Raw cache micro-costs.
    let mut micro = c.benchmark_group("render_cache_micro");
    micro.sample_size(30);
    let cache = RenderCache::new(CacheConfig::with_capacity(256));
    cache.put("k", vec![0u8; 64 * 1024], None, Duration::from_secs(2));
    micro.bench_function("hit", |b| b.iter(|| black_box(cache.get("k").is_some())));
    micro.bench_function("miss", |b| {
        b.iter(|| black_box(cache.get("absent").is_none()))
    });
    micro.finish();

    println!(
        "\namortized rendering saved by the warm proxy so far: {:?} over {} hits",
        proxy.cache().amortized_savings(),
        proxy.cache().stats().hits
    );
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
