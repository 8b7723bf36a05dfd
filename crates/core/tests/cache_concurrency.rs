//! Concurrency tests for the render cache: the LRU capacity bound, the
//! stats accounting, and TTL expiry must all hold under multi-threaded
//! hit/miss churn driven through `std::thread::scope`.

use msite::cache::{CacheConfig, RenderCache};
use std::time::Duration;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 600;
const CAPACITY: usize = 32;
const KEY_SPACE: usize = 96; // 3x capacity, so eviction must happen

/// Eight writers/readers churn a 96-key working set through a 32-entry
/// cache. The LRU bound must hold at every observation point, every
/// get must land in hits or misses, and the churn must evict.
#[test]
fn lru_bound_and_accounting_hold_under_churn() {
    let cache = RenderCache::new(CacheConfig::with_capacity(CAPACITY));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    // Stride by a per-thread offset so threads collide on
                    // some keys and diverge on others.
                    let key = format!("k{}", (t * 37 + i) % KEY_SPACE);
                    if i % 3 == 0 {
                        cache.put(&key, vec![t as u8], None, Duration::from_millis(1));
                    } else {
                        let _ = cache.get(&key);
                    }
                    assert!(
                        cache.len() <= CAPACITY,
                        "LRU bound violated: {} entries in a {}-slot cache",
                        cache.len(),
                        CAPACITY
                    );
                }
            });
        }
    });

    let stats = cache.stats();
    // Every thread issues 400 gets (i % 3 != 0 for 400 of 600 ops).
    let total_gets = (THREADS * OPS_PER_THREAD * 2 / 3) as u64;
    assert_eq!(stats.hits + stats.misses, total_gets);
    // 96 keys through 32 slots cannot avoid eviction.
    assert!(stats.evictions > 0, "churn over 3x capacity never evicted");
    assert!(cache.len() <= CAPACITY);
    // The cache is still functional after the churn.
    cache.put("post", b"done".to_vec(), None, Duration::ZERO);
    assert_eq!(cache.get("post").as_deref(), Some(&b"done"[..]));
}

/// Entries put with a short TTL must be unreadable for every thread
/// after the deadline, each expired entry is counted exactly once no
/// matter how many threads race to touch it, and untimed entries
/// survive the same churn.
#[test]
fn ttl_expiry_is_observed_once_under_concurrent_readers() {
    const TTL_KEYS: usize = 16;
    let cache = RenderCache::new(CacheConfig::with_capacity(64));
    for k in 0..TTL_KEYS {
        cache.put(
            &format!("ttl{k}"),
            vec![1u8],
            Some(Duration::from_millis(30)),
            Duration::ZERO,
        );
    }
    for k in 0..TTL_KEYS {
        cache.put(&format!("live{k}"), vec![2u8], None, Duration::ZERO);
    }

    std::thread::sleep(Duration::from_millis(60));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cache = &cache;
            scope.spawn(move || {
                for round in 0..3 {
                    for k in 0..TTL_KEYS {
                        assert!(
                            cache.get(&format!("ttl{k}")).is_none(),
                            "ttl{k} readable after expiry (round {round})"
                        );
                        assert!(
                            cache.get(&format!("live{k}")).is_some(),
                            "live{k} lost during churn (round {round})"
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    // The first toucher removes an expired entry under the lock; later
    // touchers see a plain miss. So expirations counts each TTL key
    // exactly once despite 4 threads x 3 rounds of racing reads.
    assert_eq!(stats.expirations, TTL_KEYS as u64);
    // 4 threads x 3 rounds x 16 expired-key gets are all misses.
    assert_eq!(stats.misses, (4 * 3 * TTL_KEYS) as u64);
    assert_eq!(stats.hits, (4 * 3 * TTL_KEYS) as u64);
    assert_eq!(cache.len(), TTL_KEYS);
}

/// `get_or_insert_with` under contention: every reader of a key gets a
/// coherent value that some thread produced, and the bound holds.
#[test]
fn get_or_insert_with_is_coherent_under_contention() {
    let cache = RenderCache::new(CacheConfig::with_capacity(16));
    std::thread::scope(|scope| {
        for t in 0..6u8 {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..200usize {
                    let key = format!("shared{}", i % 8);
                    let got = cache.get_or_insert_with(&key, None, || {
                        (vec![t, (i % 8) as u8].into(), Duration::from_millis(2))
                    });
                    // Whatever thread won the insert, the stored value is
                    // one of the producers' outputs for this key slot.
                    assert_eq!(got.len(), 2);
                    assert_eq!(got[1], (i % 8) as u8, "value from a different key slot");
                    assert!(cache.len() <= 16);
                }
            });
        }
    });
    assert_eq!(cache.len(), 8);
    let stats = cache.stats();
    // 6 threads x 200 lookups, each counted as a hit or a miss.
    assert_eq!(stats.hits + stats.misses, 1200);
    assert_eq!(stats.evictions, 0);
}
