//! The traced run's per-layer split. Spans inside the program do not
//! exist yet, so the ledger times calls into each module's public
//! functions from its own code:
//!
//! - `net`, `proxy` and `fetch` come from the traced window itself: the
//!   proxy tap's in-process time per request, the client's latency for
//!   the same request, and the origin hop's fetch times;
//! - `session`, `cache`, `pipeline`, `html`, `selectors` and `render` time
//!   the workload's own calls replayed in-process once the window is over,
//!   against the proxy's stores and its spec;
//! - counts are deltas of the program's counters over the traced window.
//!
//! A layer the workload never reaches reports 0.

use crate::client::Client;
use crate::measure::{median, micros, millis, quantile, sorted};
use crate::workload::{Prepared, Window, Workload};
use msite::cache::{CacheStats, SubtreeCache, SubtreeCacheStats};
use msite::pipeline::{adapt_with_report, PipelineContext, StageKind};
use msite::session::{SessionFs, SessionStoreStats};
use msite::Target;
use msite_net::{Origin, Prng, Request};
use msite_render::{png, Browser, BrowserConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Program counters read before and after the traced window.
pub struct Counters {
    cache: CacheStats,
    subtree: SubtreeCacheStats,
    sessions: SessionStoreStats,
    full_renders: u64,
    fetches: u64,
}

impl Counters {
    pub fn read(prepared: &Prepared) -> Counters {
        let proxy = &prepared.stack.proxy;
        Counters {
            cache: proxy.cache().stats(),
            subtree: proxy.subtree_cache().stats(),
            sessions: proxy.session_stats(),
            full_renders: proxy.stats().full_renders,
            fetches: prepared.stack.hop.calls(),
        }
    }
}

/// In-process replays per layer: many for µs-scale calls, few for the
/// browser.
const SESSION_REPLAYS: usize = 2_000;
const CACHE_REPLAYS: usize = 2_000;
const SELECTOR_REPLAYS: usize = 200;
const EVICTION_CHECKS: u64 = 5_000;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median duration of `runs` calls of `f`, after one untimed warm-up.
fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    f();
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(times))
}

/// Computes every per-layer metric, in the order BENCHMARK.json lists them.
pub fn per_layer(
    prepared: &Prepared,
    seed: u64,
    untraced: &Window,
    traced: &Window,
    before: &Counters,
    after: &Counters,
) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = prepared.workload;
    let stack = &prepared.stack;
    let proxy = &stack.proxy;
    let requests = traced.attempted();
    let mut rng = Prng::new(seed ^ 0x6c61_7965_7273); // "layers"

    // net + proxy: pair each traced request's client latency with the
    // proxy's in-process time for it.
    let tap = stack.tap.take_times();
    let mut overhead = Vec::new();
    let mut handle = Vec::new();
    for sample in traced.samples.iter().filter(|s| s.ok) {
        if let Some(inside) = tap.get(&sample.seq) {
            overhead.push(millis(sample.latency.saturating_sub(*inside)));
            handle.push(micros(*inside));
        }
    }
    if handle.len() * 2 < traced.samples.len() {
        return Err(format!(
            "proxy tap saw {} of {} traced requests",
            handle.len(),
            traced.samples.len()
        ));
    }
    let handle = sorted(handle);
    let handle_p50_us = quantile(&handle, 0.5);
    let connects: u64 = traced.samples.iter().map(|s| s.connects as u64).sum();
    let shed = scrape_shed(prepared)?;
    let latency_p50 = |w: &Window| {
        median(
            w.samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| millis(s.latency))
                .collect(),
        )
    };
    let untraced_p50 = latency_p50(untraced);
    let trace_overhead_pct = 100.0 * (latency_p50(traced) - untraced_p50) / untraced_p50;

    // fetch: the origin hop, timed by the ledger's own adapter.
    let fetch_times: Vec<f64> = stack
        .hop
        .take_fetch_times()
        .into_iter()
        .map(millis)
        .collect();
    let origin_p50_ms = median(fetch_times);
    let fetches_per_req = ratio(after.fetches - before.fetches, requests);

    // cache: counter deltas, then the workload's lookups replayed.
    let lookups = |s: &CacheStats| s.hits + s.misses + s.stale_hits;
    let cache_lookups = lookups(&after.cache) - lookups(&before.cache);
    let cache_hits = after.cache.hits - before.cache.hits;
    let subtree_lookups =
        (after.subtree.hits + after.subtree.misses) - (before.subtree.hits + before.subtree.misses);
    let subtree_hits = after.subtree.hits - before.subtree.hits;
    let cache_keys: &[&str] = match workload {
        Workload::WarmBrowse => &["entry:html", "img:snapshot.png"],
        Workload::NewUsers => &[],
        Workload::SnapshotRefresh => &["entry:html"],
    };
    let cache_lookup_us = if cache_keys.is_empty() {
        0.0
    } else {
        let mut i = 0;
        micros(time_median(CACHE_REPLAYS, || {
            i += 1;
            black_box(proxy.cache().lookup(cache_keys[i % cache_keys.len()]));
        }))
    };

    // session: counter deltas, then lookups (returning users) or creates
    // (first contacts) replayed against the proxy's own full store.
    let store = proxy.session_store();
    let tenant = proxy.tenant().to_string();
    let evictions = after.sessions.evicted_total() - before.sessions.evicted_total();
    let store_bytes = (store.estimated_bytes() + store.fs().total_bytes()) as f64;
    let ids: Vec<&str> = prepared
        .users
        .iter()
        .filter_map(|cookie| cookie.split_once('=').map(|(_, id)| id))
        .collect();
    let (session_lookup_us, session_create_us, newest_evicted) = match workload {
        Workload::NewUsers => {
            let subpage = store
                .fs()
                .session_ids()
                .iter()
                .find_map(|id| store.fs().read(&SessionFs::user_path(id, "s/forums.html")))
                .ok_or("no stored subpage to replay session writes with")?;
            let create = time_median(SESSION_REPLAYS / 10, || {
                let (session, _) = store.get_or_create(None, &tenant);
                let id = session.lock().id.clone();
                store
                    .fs()
                    .write(&SessionFs::user_path(&id, "s/forums.html"), subpage.clone());
            });
            // Eviction quality: a create must not evict the session the
            // create before it made, which is the most recently used one.
            let mut previous: Option<String> = None;
            let mut evicted = 0;
            for _ in 0..=EVICTION_CHECKS {
                let (session, _) = store.get_or_create(None, &tenant);
                if let Some(previous) = &previous {
                    evicted += u64::from(store.get(previous, &tenant).is_none());
                }
                previous = Some(session.lock().id.clone());
            }
            (0.0, micros(create), ratio(evicted, EVICTION_CHECKS))
        }
        _ => {
            let lookup = time_median(SESSION_REPLAYS, || {
                let id = ids[rng.below(ids.len() as u64) as usize];
                black_box(store.get_or_create(Some(id), &tenant));
                black_box(store.fs().read(&SessionFs::user_path(id, "s/forums.html")));
            });
            (micros(lookup), 0.0, 0.0)
        }
    };
    let session_part_us = session_lookup_us + session_create_us;

    // pipeline, html, selectors, render: the proxy's spec on the page the
    // origin serves, run in-process.
    let mut stages = StageTimes::default();
    let mut html = (0.0, 0.0);
    let mut selectors_us = 0.0;
    let mut render = (0.0, 0.0);
    if workload != Workload::WarmBrowse {
        let mut spec = proxy.spec().clone();
        let snapshot = spec.snapshot.clone();
        // A new user's bundle is built without the snapshot (the proxy
        // strips it the same way); the refresh rebuilds everything.
        if workload == Workload::NewUsers {
            spec.snapshot = None;
        }
        let page_request = Request::get(&spec.page_url).map_err(|e| e.to_string())?;
        let page = stack.hop.handle(&page_request).body_text();
        let ctx = PipelineContext {
            base: proxy.base(),
            subtree_cache: Some(Arc::new(SubtreeCache::new(512))),
            ..PipelineContext::default()
        };
        let runs = match workload {
            Workload::SnapshotRefresh => 7,
            _ => 41,
        };
        stages = StageTimes::measure(runs, || {
            let started = Instant::now();
            let (_, report) = adapt_with_report(&spec, &page, &ctx)
                .map_err(|e| format!("in-process pipeline: {e}"))?;
            Ok((started.elapsed(), report))
        })?;
        html = (
            millis(time_median(runs, || {
                black_box(msite_html::tidy(&page));
            })),
            millis(time_median(runs, || {
                black_box(msite_html::parse_document(&page));
            })),
        );
        let doc = msite_html::tidy(&page);
        let lists = spec
            .rules
            .iter()
            .filter_map(|rule| match &rule.target {
                Target::Css(selector) => Some(msite_selectors::SelectorList::parse(selector)),
                _ => None,
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("spec selector: {e}"))?;
        selectors_us = micros(time_median(SELECTOR_REPLAYS, || {
            for list in &lists {
                black_box(list.select(&doc, doc.root()));
            }
        }));
        if let (Workload::SnapshotRefresh, Some(snap)) = (workload, snapshot) {
            let browser = Browser::launch(BrowserConfig {
                viewport_width: snap.viewport_width,
                ..BrowserConfig::default()
            });
            let browser_ms = millis(time_median(runs, || {
                black_box(browser.render_page(&page, &[]));
            }));
            let canvas = browser.render_page(&page, &[]).canvas;
            let width = (canvas.width() as f32 * snap.scale).round() as u32;
            let scaled = canvas.downscale_to_width(width.max(1));
            let png_ms = millis(time_median(runs, || {
                black_box(png::encode(&scaled));
            }));
            render = (browser_ms, png_ms);
        }
    }

    let cache_part_us = ratio(cache_lookups, requests) * cache_lookup_us;
    let fetch_part_us = fetches_per_req * origin_p50_ms * 1e3;
    // Every pipeline run starts with one origin fetch.
    let pipeline_part_us = fetches_per_req * stages.adapt_ms * 1e3;
    let coverage =
        (session_part_us + cache_part_us + fetch_part_us + pipeline_part_us) / handle_p50_us;

    Ok(vec![
        ("net.overhead_p50_ms", median(overhead)),
        ("net.connects_per_req", ratio(connects, requests)),
        ("net.shed", shed),
        ("proxy.handle_p50_us", handle_p50_us),
        ("proxy.handle_p90_us", quantile(&handle, 0.9)),
        ("proxy.coverage", coverage),
        ("session.lookup_p50_us", session_lookup_us),
        ("session.create_p50_us", session_create_us),
        ("session.evictions_per_req", ratio(evictions, requests)),
        ("session.store_bytes", store_bytes),
        ("session.newest_evicted_ratio", newest_evicted),
        ("cache.lookup_p50_us", cache_lookup_us),
        ("cache.hit_ratio", ratio(cache_hits, cache_lookups)),
        ("cache.lookups_per_req", ratio(cache_lookups, requests)),
        (
            "cache.coalesced",
            (after.cache.coalesced - before.cache.coalesced) as f64,
        ),
        (
            "cache.subtree_reuse_ratio",
            ratio(subtree_hits, subtree_lookups),
        ),
        (
            "cache.subtree_lookups_per_req",
            ratio(subtree_lookups, requests),
        ),
        ("fetch.origin_p50_ms", origin_p50_ms),
        ("fetch.calls_per_req", fetches_per_req),
        ("pipeline.adapt_ms", stages.adapt_ms),
        ("pipeline.filter_ms", stages.filter_ms),
        ("pipeline.dom_ms", stages.dom_ms),
        ("pipeline.attributes_ms", stages.attributes_ms),
        ("pipeline.emit_ms", stages.emit_ms),
        ("pipeline.render_ms", stages.render_ms),
        ("html.tidy_ms", html.0),
        ("html.parse_ms", html.1),
        ("selectors.match_us", selectors_us),
        ("render.browser_ms", render.0),
        ("render.png_ms", render.1),
        (
            "render.renders_per_req",
            ratio(after.full_renders - before.full_renders, requests),
        ),
        ("trace.overhead_pct", trace_overhead_pct),
    ])
}

/// Median wall time of whole pipeline runs and of each stage.
#[derive(Default)]
struct StageTimes {
    adapt_ms: f64,
    filter_ms: f64,
    dom_ms: f64,
    attributes_ms: f64,
    emit_ms: f64,
    render_ms: f64,
}

impl StageTimes {
    fn measure(
        runs: usize,
        mut run: impl FnMut() -> Result<(Duration, msite::pipeline::PipelineReport), String>,
    ) -> Result<StageTimes, String> {
        run()?;
        let mut reports = Vec::new();
        for _ in 0..runs {
            reports.push(run()?);
        }
        let stage = |kind: StageKind| {
            median(
                reports
                    .iter()
                    .map(|(_, r)| r.stage(kind).map_or(0.0, |s| millis(s.elapsed)))
                    .collect(),
            )
        };
        Ok(StageTimes {
            adapt_ms: median(reports.iter().map(|(wall, _)| millis(*wall)).collect()),
            filter_ms: stage(StageKind::Filter),
            dom_ms: stage(StageKind::Dom),
            attributes_ms: stage(StageKind::Attributes),
            emit_ms: stage(StageKind::Emit),
            render_ms: stage(StageKind::Render),
        })
    }
}

/// The proxy server's shed counter, as an operator reads it from
/// `GET /metrics`.
fn scrape_shed(prepared: &Prepared) -> Result<f64, String> {
    const SERIES: &str = "msite_server_rejected_overload_total";
    let mut client = Client::new(prepared.stack.proxy_addr());
    let ex = client
        .get("/metrics", &[])
        .map_err(|e| format!("/metrics scrape: {e}"))?;
    String::from_utf8_lossy(&ex.body)
        .lines()
        .find_map(|line| {
            line.strip_prefix(SERIES)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .ok_or_else(|| format!("/metrics has no {SERIES}"))
}
