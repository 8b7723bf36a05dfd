//! Property suite for the render cache's lock striping: shard
//! capacities always sum to the configured total, eviction pressure in
//! one shard never reaches entries living in another, and each shard
//! keeps its own exact LRU order.

use msite::cache::{CacheConfig, RenderCache};
use msite_support::prop;
use std::time::Duration;

const SEC: Duration = Duration::from_secs(1);

/// The striping never loses or invents capacity: per-shard capacities
/// partition the configured total, and the live-entry count never
/// exceeds it no matter the insertion pattern.
#[test]
fn capacity_is_respected_as_sum_of_shards() {
    prop::check("capacity partitions across shards", 120, 0x5A4D, |g| {
        let capacity = g.range_usize(1, 64);
        let shards = g.range_usize(1, 12);
        let cache = RenderCache::new(CacheConfig {
            shards: Some(shards),
            ..CacheConfig::with_capacity(capacity)
        });

        let total: usize = (0..cache.shard_count())
            .map(|i| cache.shard_capacity(i))
            .sum();
        assert_eq!(total, capacity, "shard capacities must partition the total");
        assert!(cache.shard_count() <= shards.min(capacity));

        for i in 0..g.range_usize(1, 200) {
            cache.put(&format!("key-{i}"), b"v".to_vec(), None, SEC);
            assert!(
                cache.len() <= capacity,
                "{} live entries in a capacity-{capacity} cache",
                cache.len()
            );
        }
        for i in 0..cache.shard_count() {
            assert!(cache.shard_len(i) <= cache.shard_capacity(i));
        }
    });
}

/// Overflowing one shard evicts only within that shard: keys resident
/// in every other shard survive untouched.
#[test]
fn eviction_never_crosses_shards() {
    prop::check("eviction stays within its shard", 60, 0xEB1C7, |g| {
        let cache = RenderCache::new(CacheConfig {
            shards: Some(4),
            ..CacheConfig::with_capacity(16)
        });
        let mut resident: Vec<Vec<String>> = vec![Vec::new(); cache.shard_count()];

        for i in 0..g.range_usize(20, 120) {
            let key = format!("k{}-{i}", g.range_usize(0, 1000));
            let shard = cache.shard_of(&key);
            cache.put(&key, b"v".to_vec(), None, SEC);

            // Every key recorded as resident in a *different* shard must
            // still be present: this put could only evict shard-locally.
            for (other, keys) in resident.iter().enumerate() {
                if other != shard {
                    for k in keys {
                        assert!(
                            cache.get(k).is_some(),
                            "put into shard {shard} evicted `{k}` from shard {other}"
                        );
                    }
                }
            }

            // Refresh the bookkeeping for the shard we touched: the put
            // may have evicted one of its LRU entries (and the probes
            // above refreshed recency everywhere else).
            resident[shard].push(key);
            resident[shard].retain(|k| cache.get(k).is_some());
        }
    });
}

/// Within a single shard the LRU order is exact: fill one shard, touch
/// everything except a chosen victim, overflow the shard, and the
/// victim — and only the victim — is evicted.
#[test]
fn lru_is_preserved_within_each_shard() {
    prop::check("per-shard LRU order", 60, 0x14B0, |g| {
        let cache = RenderCache::new(CacheConfig {
            shards: Some(4),
            ..CacheConfig::with_capacity(32)
        });
        let target = g.range_usize(0, cache.shard_count());
        let need = cache.shard_capacity(target) + 1;

        // Mine keys that hash into the target shard.
        let mut keys = Vec::new();
        let mut n = 0usize;
        while keys.len() < need {
            let key = format!("mined-{n}");
            if cache.shard_of(&key) == target {
                keys.push(key);
            }
            n += 1;
        }

        let (overflow, fill) = keys.split_last().unwrap();
        for key in fill {
            cache.put(key, b"v".to_vec(), None, SEC);
        }
        let victim = g.range_usize(0, fill.len());
        for (i, key) in fill.iter().enumerate() {
            if i != victim {
                assert!(cache.get(key).is_some(), "freshly inserted `{key}` missing");
            }
        }

        cache.put(overflow, b"v".to_vec(), None, SEC);
        assert!(
            cache.get(&fill[victim]).is_none(),
            "LRU victim `{}` survived the overflow",
            fill[victim]
        );
        for (i, key) in fill.iter().enumerate() {
            if i != victim {
                assert!(cache.get(key).is_some(), "non-victim `{key}` was evicted");
            }
        }
        assert!(cache.get(overflow).is_some());
    });
}
