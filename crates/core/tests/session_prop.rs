//! Property + concurrency suite for the sharded [`SessionStore`]'s
//! eviction accounting and tenant isolation.
//!
//! Invariants checked, in the style of `subtree_prop.rs`:
//!
//! - **Conservation**: `live + destroyed + evicted == created` after
//!   any single-threaded interleaving of create/get/destroy across
//!   tenants — and after *concurrent* churn from many threads (the
//!   seed's `prune_to` check-then-act race would break both the bound
//!   and this identity under concurrency).
//! - **Bounds**: the global `max_sessions` cap and per-tenant quota are
//!   never exceeded at any observation point.
//! - **Quota isolation**: a tenant flooding the store cannot evict
//!   another tenant's sessions (the acceptance-criteria property).
//! - **Teardown**: an evicted or destroyed session's directory is
//!   always wiped — no orphans, no leaked bytes.

use msite::{SessionFs, SessionStore, SessionStoreConfig};
use msite_support::prop;
use msite_support::telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn store(config: SessionStoreConfig) -> (Arc<SessionFs>, SessionStore) {
    let fs = Arc::new(SessionFs::new(&MetricsRegistry::new()));
    let st = SessionStore::new(config, Arc::clone(&fs), Default::default());
    (fs, st)
}

/// Single-threaded reference-model churn: create/get/destroy across
/// random tenants, checking conservation, bounds, and LRU-victim
/// agreement with a naive model on every step.
#[test]
fn accounting_conserves_under_churn() {
    prop::check("live+destroyed+evicted == created", 60, 0x5E55, |g| {
        let max_sessions = g.range_usize(2, 24);
        let tenant_share = [0.34, 0.5, 0.75, 1.0][g.range_usize(0, 4)];
        let (fs, store) = store(SessionStoreConfig {
            max_sessions,
            session_ttl: None,
            tenant_share,
            ..SessionStoreConfig::default()
        });
        let tenants = ["a", "b", "c"];
        let quota = store.tenant_quota();
        // Model: id -> tenant for live sessions (order not modeled; the
        // store's own counters carry the eviction side).
        let mut model: HashMap<String, &str> = HashMap::new();
        let mut known: Vec<String> = Vec::new();
        let mut destroyed = 0u64;

        for step in 0..g.range_usize(10, 200) {
            let tenant = *g.pick(&tenants);
            match g.range_u32(0, 3) {
                0 => {
                    let id = store.create(tenant).lock().id.clone();
                    fs.write(
                        &SessionFs::user_path(&id, "s/x.html"),
                        vec![0u8; g.range_usize(0, 64)],
                    );
                    model.insert(id.clone(), tenant);
                    known.push(id);
                }
                1 if !known.is_empty() => {
                    let id = known[g.range_usize(0, known.len())].clone();
                    let hit = store.get(&id, tenant);
                    if hit.is_some() {
                        assert_eq!(
                            model.get(&id),
                            Some(&tenant),
                            "step {step}: hit for a session the model thinks is gone or \
                             belongs to another tenant"
                        );
                    }
                }
                _ if !known.is_empty() => {
                    let id = known[g.range_usize(0, known.len())].clone();
                    if store.destroy(&id) {
                        assert!(
                            model.remove(&id).is_some(),
                            "step {step}: destroyed a session the model never saw live"
                        );
                        destroyed += 1;
                    }
                }
                _ => {}
            }
            // The store may evict behind the model's back; drop model
            // entries the store no longer serves.
            model.retain(|id, tenant| store.get(id, tenant).is_some());

            let stats = store.stats();
            assert_eq!(
                stats.live + stats.destroyed + stats.evicted_total(),
                stats.created,
                "step {step}: conservation broken: {stats:?}"
            );
            assert_eq!(stats.destroyed, destroyed);
            assert!(
                stats.live as usize <= max_sessions,
                "step {step}: {} live > bound {max_sessions}",
                stats.live
            );
            for tenant in &tenants {
                assert!(
                    store.tenant_live(tenant) <= quota,
                    "step {step}: tenant {tenant} over quota {quota}"
                );
            }
            assert_eq!(store.len(), model.len(), "step {step}: live set diverged");
            // Teardown: only live sessions own directories.
            assert_eq!(
                fs.session_dirs(),
                model
                    .keys()
                    .filter(|id| fs.bytes_of(id) > 0
                        || fs.read(&SessionFs::user_path(id, "s/x.html")).is_some())
                    .count(),
                "step {step}: orphaned session directory"
            );
        }
    });
}

/// The acceptance-criteria property: pre-populate one tenant, then let
/// another flood the store far past every bound — the first tenant's
/// sessions must all survive, byte directories included.
#[test]
fn saturated_tenant_cannot_evict_others() {
    prop::check("quota isolation", 40, 0x1501_410e, |g| {
        let max_sessions = g.range_usize(6, 32);
        let (fs, store) = store(SessionStoreConfig {
            max_sessions,
            session_ttl: None,
            tenant_share: [0.25, 0.5, 0.6][g.range_usize(0, 3)],
            ..SessionStoreConfig::default()
        });
        let quota = store.tenant_quota();
        let protected = g.range_usize(1, quota.min(max_sessions.saturating_sub(quota)).max(2));
        let victims: Vec<String> = (0..protected)
            .map(|i| {
                let id = store.create("settled").lock().id.clone();
                fs.write(&SessionFs::user_path(&id, "s/p.html"), vec![1u8; 10 + i]);
                id
            })
            .collect();

        // Flood from a different tenant: several times the whole store.
        for _ in 0..g.range_usize(2, 5) * max_sessions {
            store.create("flood");
        }

        assert!(store.tenant_live("flood") <= quota, "flood capped at quota");
        assert_eq!(
            store.tenant_live("settled"),
            protected,
            "flood evicted a settled session"
        );
        for id in &victims {
            assert!(
                store.get(id, "settled").is_some(),
                "settled session lost to the flood"
            );
            assert!(
                fs.bytes_of(id) > 0,
                "settled session directory wiped by the flood"
            );
        }
        let stats = store.stats();
        assert_eq!(
            stats.live + stats.evicted_total(),
            stats.created,
            "conservation after flood: {stats:?}"
        );
    });
}

/// The seed's `prune_to` was a check-then-act race: a concurrent create
/// between the length check and the destroy left the store over bound.
/// Here many threads churn create/get/destroy simultaneously against a
/// small store; afterwards the bound held, accounting conserves, and no
/// orphan directories remain.
#[test]
fn concurrent_churn_holds_bounds_and_conserves() {
    let max_sessions = 32;
    let (fs, store) = store(SessionStoreConfig {
        max_sessions,
        session_ttl: None,
        tenant_share: 0.5,
        ..SessionStoreConfig::default()
    });
    let store = Arc::new(store);
    let tenants = ["a", "b", "c", "d"];
    let threads = 8;
    let per_thread = 300;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            let fs = Arc::clone(&fs);
            scope.spawn(move || {
                let mut recent: Vec<String> = Vec::new();
                for i in 0..per_thread {
                    let tenant = tenants[(t + i) % tenants.len()];
                    match i % 5 {
                        0..=2 => {
                            let id = store.create(tenant).lock().id.clone();
                            fs.write(&SessionFs::user_path(&id, "f"), vec![0u8; 16]);
                            recent.push(id);
                            if recent.len() > 8 {
                                recent.remove(0);
                            }
                        }
                        3 => {
                            if let Some(id) = recent.last() {
                                // May or may not still be live; both fine.
                                let _ = store.get(id, tenant);
                            }
                        }
                        _ => {
                            if let Some(id) = recent.pop() {
                                let _ = store.destroy(&id);
                            }
                        }
                    }
                    // The bound must hold at every observation point up
                    // to reservation slack: a creator counts itself
                    // live *before* evicting its victim, so the counter
                    // can transiently exceed the bound by at most the
                    // number of in-flight creates — never unboundedly,
                    // which is what the prune_to race allowed.
                    assert!(
                        store.len() <= max_sessions + threads,
                        "mid-churn bound violation: {} > {max_sessions}+{threads}",
                        store.len()
                    );
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(
        stats.live + stats.destroyed + stats.evicted_total(),
        stats.created,
        "conservation after concurrent churn: {stats:?}"
    );
    assert_eq!(stats.created, (threads * per_thread * 3 / 5) as u64);
    assert!(store.len() <= max_sessions);
    let quota = store.tenant_quota();
    for tenant in &tenants {
        assert!(store.tenant_live(tenant) <= quota);
    }
    // Teardown races writes: a thread can write an artifact for a
    // session another thread just evicted, recreating its directory as
    // an orphan. The reconciling sweep claims exactly those; after it,
    // every remaining dir belongs to a live session.
    store.reclaim_orphan_dirs();
    assert!(
        fs.session_dirs() <= store.len(),
        "{} dirs for {} live sessions after reclaim",
        fs.session_dirs(),
        store.len()
    );
}

/// TTL + quota compose: expired sessions are reclaimed (cause
/// `expired`), and the occupancy a sweep reports matches the live
/// counter.
#[test]
fn expiry_sweep_agrees_with_counters() {
    prop::check("sweep vs counters", 40, 0x77_1e5, |g| {
        let (_fs, store) = store(SessionStoreConfig {
            max_sessions: 64,
            session_ttl: Some(std::time::Duration::from_secs(60)),
            ..SessionStoreConfig::default()
        });
        let early = g.range_usize(1, 20);
        let late = g.range_usize(1, 20);
        for _ in 0..early {
            store.create("t");
        }
        store.advance_clock(std::time::Duration::from_secs(40));
        let survivors: Vec<String> = (0..late)
            .map(|_| store.create("t").lock().id.clone())
            .collect();
        store.advance_clock(std::time::Duration::from_secs(30));
        // Now the early batch (age 70s) is past the 60s TTL; the late
        // batch (age 30s) is not.
        let swept = store.sweep_expired();
        assert_eq!(swept, early, "exactly the early batch expires");
        assert_eq!(store.len(), late);
        for id in &survivors {
            assert!(store.get(id, "t").is_some());
        }
        let stats = store.stats();
        assert_eq!(stats.evicted_expired, early as u64);
        assert_eq!(
            stats.live + stats.evicted_total(),
            stats.created,
            "{stats:?}"
        );
    });
}

/// LRU order is store-wide: with several shards, eviction always takes
/// the least recently created-or-touched session, so a create never
/// evicts the session the previous create made. Per-shard tick clocks
/// broke this: touches advance only their own shard's clock, so a
/// lagging shard's newest sessions compared as the oldest.
#[test]
fn multi_shard_eviction_is_global_lru() {
    prop::check("multi-shard LRU order", 20, 0x010C_C10C, |g| {
        let max_sessions = g.range_usize(64, 300);
        let (_fs, store) = store(SessionStoreConfig {
            max_sessions,
            session_ttl: None,
            seed: g.u64(),
            ..SessionStoreConfig::default()
        });
        assert!(store.shard_count() >= 2, "test needs several shards");
        let evicted = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&evicted);
        store.add_evict_hook(Arc::new(move |id: &str| {
            sink.lock().expect("hook sink").push(id.to_string())
        }));
        // A returning user touches one hot session in bursts between
        // creates, so its shard sees many more ticks than the others.
        let hot = store.create("t").lock().id.clone();
        // Model: live ids, least recently used first.
        let mut lru: Vec<String> = vec![hot.clone()];
        let mut previous: Option<String> = None;
        for _ in 0..max_sessions * 3 {
            let expected: Vec<String> = if lru.len() == max_sessions {
                vec![lru.remove(0)]
            } else {
                Vec::new()
            };
            let id = store.create("t").lock().id.clone();
            let victims = std::mem::take(&mut *evicted.lock().expect("hook sink"));
            if let Some(previous) = &previous {
                assert!(
                    !victims.contains(previous),
                    "create evicted the previous create's session"
                );
            }
            assert_eq!(victims, expected, "eviction left LRU order");
            lru.push(id.clone());
            previous = Some(id);
            for _ in 0..g.range_usize(1, 40) {
                assert!(store.get(&hot, "t").is_some(), "hot session missed");
            }
            let at = lru.iter().position(|id| *id == hot).expect("hot is live");
            lru.remove(at);
            lru.push(hot.clone());
        }
    });
}

/// The `msite_session_*` gauges move with the store itself: after LRU
/// and TTL evictions they equal the store's own counts with no request
/// or scrape in between (the health monitor reads these gauges).
#[test]
fn live_gauges_track_evictions_without_a_scrape() {
    let registry = Arc::new(MetricsRegistry::new());
    let fs = Arc::new(SessionFs::new(&registry));
    let store = SessionStore::new(
        SessionStoreConfig {
            max_sessions: 4,
            session_ttl: Some(Duration::from_secs(60)),
            ..SessionStoreConfig::default()
        },
        Arc::clone(&fs),
        Arc::clone(&registry),
    );
    let agree = |expected: u64| {
        let live = registry.gauge_value("msite_session_live", &[]);
        let tenant = registry.gauge_value("msite_session_tenant_live", &[("tenant", "t")]);
        assert_eq!(store.stats().live, expected);
        assert_eq!(store.len() as u64, expected);
        assert_eq!(live, expected as i64);
        assert_eq!(tenant, store.tenant_live("t") as i64);
        assert_eq!(
            registry.gauge_value("msite_session_fs_bytes", &[]),
            fs.session_bytes() as i64
        );
    };

    // Six creates against a bound of four: two LRU evictions.
    let ids: Vec<String> = (0..6)
        .map(|_| store.create("t").lock().id.clone())
        .collect();
    fs.write(&SessionFs::user_path(&ids[5], "s/a.html"), b"abc".to_vec());
    assert_eq!(store.stats().evicted_lru, 2);
    agree(4);

    // TTL: a touch past the idle timeout removes one session, the sweep
    // the rest.
    store.advance_clock(Duration::from_secs(61));
    assert!(store.get(&ids[5], "t").is_none());
    assert_eq!(store.stats().evicted_expired, 1);
    agree(3);
    assert_eq!(store.sweep_expired(), 3);
    agree(0);
    assert_eq!(store.stats().evicted_expired, 4);
}
