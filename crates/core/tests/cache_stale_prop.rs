//! Property tests for the render cache's serve-stale semantics, driven
//! through the deterministic `advance_clock` harness hook under pinned
//! seeds.
//!
//! Clock model: virtual time advances in whole seconds while the real
//! time spent inside a test case is far below one second, so every
//! boundary comparison below leaves at least a one-second guard band
//! and cannot flake on scheduler jitter.

use msite::cache::{CacheConfig, Lookup, RenderCache};
use msite_support::prop;
use std::time::Duration;

const SEC: Duration = Duration::from_secs(1);

#[test]
fn stale_window_partitions_entry_lifetime() {
    prop::check("ttl/stale/purge partition", 150, 0x57A1E, |g| {
        let ttl_secs = g.range_u64(2, 30);
        let window_secs = g.range_u64(2, 60);
        let cache = RenderCache::new(CacheConfig {
            stale_window: SEC * window_secs as u32,
            ..CacheConfig::with_capacity(8)
        });
        cache.put("k", "artifact", Some(SEC * ttl_secs as u32), SEC);

        let mut t = 0u64; // virtual seconds since the put
        let mut purged = false;
        for _ in 0..g.range_usize(1, 12) {
            let step = g.range_u64(1, 20);
            cache.advance_clock(SEC * step as u32);
            t += step;
            // Stay off the exact boundaries: real elapsed time inside
            // the case could push an exact boundary either way.
            if t == ttl_secs || t == ttl_secs + window_secs {
                cache.advance_clock(SEC);
                t += 1;
            }
            match cache.lookup("k") {
                Lookup::Fresh(value) => {
                    assert!(t < ttl_secs, "fresh at {t}s (ttl {ttl_secs}s)");
                    assert!(!purged, "fresh after purge");
                    assert_eq!(&value[..], b"artifact");
                    // get() agrees while fresh.
                    assert!(cache.get("k").is_some());
                }
                Lookup::Stale { value, age } => {
                    assert!(
                        t > ttl_secs && t <= ttl_secs + window_secs,
                        "stale at {t}s (ttl {ttl_secs}s window {window_secs}s)"
                    );
                    assert!(!purged, "stale after purge");
                    assert_eq!(&value[..], b"artifact");
                    // Reported age tracks virtual time past expiry.
                    let expect = t - ttl_secs;
                    assert!(
                        age >= SEC * (expect.saturating_sub(1)) as u32
                            && age <= SEC * (expect + 1) as u32,
                        "age {age:?} at {t}s, expected ~{expect}s"
                    );
                    assert!(age <= cache.stale_window() + SEC);
                    // get() hides stale entries without dropping them.
                    assert!(cache.get("k").is_none());
                    assert!(matches!(cache.lookup("k"), Lookup::Stale { .. }));
                }
                Lookup::Miss => {
                    assert!(t > ttl_secs + window_secs, "miss at {t}s too early");
                    purged = true;
                }
            }
            if purged {
                // Once beyond salvage the entry never comes back.
                assert!(matches!(cache.lookup("k"), Lookup::Miss));
                assert!(cache.get("k").is_none());
            }
        }
    });
}

#[test]
fn untimed_entries_never_go_stale() {
    prop::check("no ttl, no staleness", 60, 0xE7E4A1, |g| {
        let cache = RenderCache::new(CacheConfig {
            stale_window: SEC * g.range_u64(0, 30) as u32,
            ..CacheConfig::with_capacity(4)
        });
        cache.put("pinned", "forever", None, SEC);
        for _ in 0..g.range_usize(1, 6) {
            cache.advance_clock(SEC * g.range_u64(1, 10_000) as u32);
            assert!(matches!(cache.lookup("pinned"), Lookup::Fresh(_)));
            assert!(cache.get("pinned").is_some());
        }
    });
}

#[test]
fn zero_window_reduces_to_plain_ttl_cache() {
    prop::check("zero stale window", 60, 0x0D0, |g| {
        let ttl = g.range_u64(1, 20);
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put("k", "v", Some(SEC * ttl as u32), SEC);
        cache.advance_clock(SEC * (ttl + g.range_u64(1, 50)) as u32);
        // Past TTL with no stale window there is nothing to salvage.
        assert!(matches!(cache.lookup("k"), Lookup::Miss));
        assert!(cache.get("k").is_none());
        assert_eq!(cache.stats().expirations, 1);
    });
}

#[test]
fn stale_hit_counters_reconcile() {
    prop::check("stale counters", 80, 0xC0047, |g| {
        let ttl = g.range_u64(1, 10);
        let window = g.range_u64(2, 40);
        let cache = RenderCache::new(CacheConfig {
            stale_window: SEC * window as u32,
            ..CacheConfig::with_capacity(4)
        });
        cache.put("k", "v", Some(SEC * ttl as u32), SEC);
        cache.advance_clock(SEC * (ttl + 1) as u32);
        let serves = g.range_u64(1, 8);
        for _ in 0..serves {
            assert!(matches!(cache.lookup("k"), Lookup::Stale { .. }));
        }
        let stats = cache.stats();
        assert_eq!(stats.stale_hits, serves);
        // Stale serves are not fresh hits and not misses.
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
    });
}
