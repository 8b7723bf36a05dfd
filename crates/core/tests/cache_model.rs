//! Model-based property test for the render cache: random op sequences
//! against a naive reference model must agree on contents, and the LRU
//! bound must never be exceeded.

use msite::cache::{CacheConfig, RenderCache};
use msite_support::prop::{self, Gen};
use std::collections::HashMap;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Get(u8),
    Invalidate(u8),
    Clear,
}

fn arb_op(g: &mut Gen) -> Op {
    // Weighted 4:4:1:1 like the original strategy.
    match g.range_u32(0, 10) {
        0..=3 => Op::Put(g.range_u8(0, 12), g.u8()),
        4..=7 => Op::Get(g.range_u8(0, 12)),
        8 => Op::Invalidate(g.range_u8(0, 12)),
        _ => Op::Clear,
    }
}

/// Reference model: a map plus recency list, same capacity semantics.
struct Model {
    capacity: usize,
    entries: HashMap<u8, u8>,
    recency: Vec<u8>, // least recent first
}

impl Model {
    fn touch(&mut self, key: u8) {
        self.recency.retain(|&k| k != key);
        self.recency.push(key);
    }

    fn put(&mut self, key: u8, value: u8) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(&oldest) = self.recency.first() {
                self.entries.remove(&oldest);
                self.recency.retain(|&k| k != oldest);
            }
        }
        self.entries.insert(key, value);
        self.touch(key);
    }

    fn get(&mut self, key: u8) -> Option<u8> {
        let value = self.entries.get(&key).copied();
        if value.is_some() {
            self.touch(key);
        }
        value
    }
}

#[test]
fn cache_agrees_with_model() {
    prop::check("cache agrees with model", 128, 0x00CA_C4E0, |g| {
        let capacity = g.range_usize(1, 8);
        let ops = g.vec(0, 60, arb_op);
        let cache = RenderCache::new(CacheConfig::with_capacity(capacity));
        let mut model = Model {
            capacity,
            entries: HashMap::new(),
            recency: Vec::new(),
        };
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    cache.put(&k.to_string(), vec![v], None, Duration::ZERO);
                    model.put(k, v);
                }
                Op::Get(k) => {
                    let real = cache.get(&k.to_string()).map(|b| b[0]);
                    let expected = model.get(k);
                    assert_eq!(real, expected, "get({k}) diverged");
                }
                Op::Invalidate(k) => {
                    cache.invalidate(&k.to_string());
                    model.entries.remove(&k);
                    model.recency.retain(|&x| x != k);
                }
                Op::Clear => {
                    cache.clear();
                    model.entries.clear();
                    model.recency.clear();
                }
            }
            assert!(cache.len() <= capacity, "cache exceeded capacity");
            assert_eq!(cache.len(), model.entries.len());
        }
    });
}

/// Hits + misses always equals the number of get() calls, and amortized
/// savings equals hits x cost when all entries share one cost.
#[test]
fn stats_are_consistent() {
    prop::check("cache stats are consistent", 128, 0x00CA_C4E1, |g| {
        let ops = g.vec(0, 40, arb_op);
        let cache = RenderCache::new(CacheConfig::with_capacity(64));
        let cost = Duration::from_millis(7);
        let mut gets = 0u64;
        for op in ops {
            match op {
                Op::Put(k, v) => cache.put(&k.to_string(), vec![v], None, cost),
                Op::Get(k) => {
                    gets += 1;
                    let _ = cache.get(&k.to_string());
                }
                Op::Invalidate(k) => cache.invalidate(&k.to_string()),
                Op::Clear => cache.clear(),
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, gets);
        assert_eq!(cache.amortized_savings(), cost * stats.hits as u32);
    });
}
