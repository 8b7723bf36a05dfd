//! The shared render cache: TTL + LRU with serve-stale degradation and
//! a single-flight layer, safe for concurrent access.
//!
//! "Certain areas of a site may be defined as cachable across sessions,
//! amortizing the initial pre-rendering cost across many users" (§3.3).
//! Keys are `(page, variant)` strings; values are opaque byte artifacts
//! (snapshot PNGs, pre-rendered fragments, adapted HTML).
//!
//! Expired entries are kept for a configurable *stale window* past
//! their TTL. [`RenderCache::get`] never returns them, but
//! [`RenderCache::lookup`] reports them as [`Lookup::Stale`], which the
//! proxy uses to serve a last-known-good snapshot when the origin is
//! down or its circuit breaker is open — degraded service instead of a
//! 5xx per request.
//!
//! # Single flight
//!
//! Concurrent misses on one key do not stampede the producer. Every
//! flight starts in [`RenderCache::lead_or_join`]: the first caller to
//! miss registers an in-flight marker and gets the leader handle,
//! [`ExternalFlight`]; every other caller becomes a *waiter*, blocking
//! on the flight's [`OnceValue`] rendezvous and sharing the leader's
//! result (counted in [`CacheStats::coalesced`]). The leader settles
//! the flight exactly one way: `complete` publishes the value, `fail`
//! publishes the error (waiters return it and do not retry), and
//! dropping the handle — a panic in a closure leader included —
//! abandons the flight, so waiters retry and elect a new leader.
//!
//! There is one stale policy: a stale-window entry never
//! short-circuits a render. Waiters can bound their wait; on expiry
//! they fall back to a stale-window entry when one exists, or report
//! [`Claim::TimedOut`] so the caller can surface a deadline error
//! instead of blocking forever.
//!
//! # Lock striping
//!
//! The key space is split across `K` shards (FNV-1a on the key), each
//! with its own mutex, entry map, and in-flight registry, so unrelated
//! keys no longer serialize under multi-user load. LRU eviction is per
//! shard against the shard's slice of the capacity; `advance_clock` and
//! the stale window apply uniformly across shards. Small caches
//! (capacity ≤ 32) collapse to a single shard, which is exactly the
//! seed's global-LRU behavior.

use crate::persist::{DiskFreshness, DiskTier};
use msite_html::fingerprint::fnv1a;
use msite_support::bytes::Bytes;
use msite_support::sync::{Mutex, OnceValue};
use msite_support::telemetry::{Counter, MetricsRegistry};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache statistics snapshot, read from the `msite_cache_*_total`
/// registry counters the cache bumps (caches on one registry share them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped because their TTL (plus stale window) passed.
    pub expirations: u64,
    /// Lookups answered by an expired entry still inside the stale
    /// window (serve-stale degradation).
    pub stale_hits: u64,
    /// Misses that were answered by joining another caller's in-flight
    /// `produce()` instead of launching their own (single flight).
    pub coalesced: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when no lookups happened. Stale lookups
    /// are *not* hits — they are degraded service — so they count in
    /// the denominator only: `hits / (hits + misses + stale_hits)`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.stale_hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything a [`RenderCache`] is built from.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total entry bound across all shards; must be positive.
    pub capacity: usize,
    /// How long expired entries stay servable past their TTL as the
    /// stale fallback ([`Lookup::Stale`], [`Claim::Stale`]). Zero drops
    /// them on first touch.
    pub stale_window: Duration,
    /// Lock stripes, clamped to `[1, capacity]` and sharing the capacity
    /// evenly. `None` gives `capacity / 32` in `[1, 16]`: a cache of 32
    /// entries or fewer is one global LRU.
    pub shards: Option<usize>,
    /// Persistent second tier: written behind, consulted on memory
    /// misses, and its hot set preloaded at construction (warm restart).
    pub disk: Option<Arc<DiskTier>>,
    /// Registry to count into; `None` gives the cache a private one.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl CacheConfig {
    /// A memory-only cache of `capacity` entries: no stale window,
    /// default sharding, a private registry.
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig {
            capacity,
            stale_window: Duration::ZERO,
            shards: None,
            disk: None,
            metrics: None,
        }
    }
}

/// The registry handles a cache counts into, interned at construction.
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    expirations: Arc<Counter>,
    stale_hits: Arc<Counter>,
    coalesced: Arc<Counter>,
    /// Entries preloaded from the disk tier (`None` when memory-only).
    warm_loaded: Option<Arc<Counter>>,
}

struct Entry {
    value: Bytes,
    expires_at: Option<Instant>,
    last_used: u64,
    cost: Duration,
}

/// Where an entry stands at a given instant — the one freshness rule
/// every read, flight, eviction and `len` applies.
enum Standing {
    /// Within its TTL (or untimed).
    Fresh,
    /// Expired, but no more than the stale window ago; carries the age
    /// past expiry.
    Stale(Duration),
    /// Past the stale window: beyond salvage.
    Dead,
}

impl Entry {
    fn standing(&self, now: Instant, stale_window: Duration) -> Standing {
        let age = self
            .expires_at
            .map_or(Duration::ZERO, |t| now.saturating_duration_since(t));
        if age.is_zero() {
            Standing::Fresh
        } else if age <= stale_window {
            Standing::Stale(age)
        } else {
            Standing::Dead
        }
    }
}

/// What a read of one key found (see [`Inner::probe`]).
enum Probe {
    Fresh { value: Bytes, cost: Duration },
    Stale { value: Bytes, age: Duration },
    Absent,
}

/// Marker published when a leader handle is dropped without settling
/// its flight; waiters that see it retry (and may lead).
struct LeaderAbandoned;

type FlightError = Arc<dyn Any + Send + Sync>;

/// A registered in-flight render that waiters rendezvous on.
#[derive(Default)]
struct InFlight {
    result: OnceValue<Result<Bytes, FlightError>>,
    waiters: AtomicU64,
}

impl InFlight {
    /// Parks until the leader settles the flight or `deadline` passes
    /// (`None` = indefinitely); `None` on timeout.
    fn wait(&self, deadline: Option<Instant>) -> Option<Result<Bytes, FlightError>> {
        match deadline {
            None => Some(self.result.wait()),
            Some(deadline) => self
                .result
                .wait_for(deadline.saturating_duration_since(Instant::now())),
        }
    }
}

struct Inner {
    entries: HashMap<String, Entry>,
    flights: HashMap<String, Arc<InFlight>>,
    clock: u64,
    amortized: Duration,
    /// Test/harness clock offset added to `Instant::now()`, so TTL and
    /// stale-window behavior can be driven without real sleeps.
    time_offset: Duration,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::now() + self.time_offset
    }
}

struct Shard {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                flights: HashMap::new(),
                clock: 0,
                amortized: Duration::ZERO,
                time_offset: Duration::ZERO,
            }),
        }
    }
}

/// Outcome of a [`RenderCache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A live entry.
    Fresh(Bytes),
    /// An expired entry still inside the stale window — usable only as
    /// degraded output when the authoritative source is unavailable.
    Stale {
        /// The expired artifact.
        value: Bytes,
        /// How long past its TTL the entry is.
        age: Duration,
    },
    /// Nothing usable.
    Miss,
}

/// Outcome of a [`RenderCache::lead_or_join`] — the one way a flight is
/// started or joined.
#[derive(Debug)]
pub enum Claim<E> {
    /// A fresh entry was already cached; no flight was needed.
    Hit(Bytes),
    /// This caller leads the flight and must settle the handle:
    /// [`ExternalFlight::complete`], [`ExternalFlight::fail`], or drop
    /// it to abandon.
    Led(ExternalFlight),
    /// This caller joined another caller's flight and shares its value.
    Shared(Bytes),
    /// The wait budget expired and an expired entry inside the stale
    /// window was served instead.
    Stale {
        /// The expired artifact.
        value: Bytes,
        /// How long past its TTL the entry is.
        age: Duration,
    },
    /// The wait budget expired with nothing usable cached.
    TimedOut,
    /// The leader failed the flight; every waiter gets a clone of its
    /// error.
    Failed(E),
}

/// Outcome of a [`RenderCache::render_flight`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flight<E> {
    /// A fresh entry was already cached; no flight was needed.
    Hit(Bytes),
    /// This caller led the flight: it ran `produce()` and cached the
    /// result.
    Led {
        /// The freshly produced artifact.
        value: Bytes,
        /// How many waiters were registered on the flight when it
        /// completed (they each count one `coalesced` as they wake).
        shared_with: u64,
    },
    /// This caller joined another caller's flight and shares its
    /// result.
    Shared(Bytes),
    /// The wait budget expired and an expired entry inside the stale
    /// window was served instead.
    Stale {
        /// The expired artifact.
        value: Bytes,
        /// How long past its TTL the entry is.
        age: Duration,
    },
    /// The wait budget expired with nothing usable cached.
    TimedOut,
    /// The flight's `produce()` failed; leaders report their own error,
    /// waiters a clone of the leader's.
    Failed(E),
}

/// The state a leader handle needs to publish without borrowing the
/// cache: a streamed leader settles its flight after `handle` returns.
struct Core {
    shards: Box<[Shard]>,
    /// Stale-window width in microseconds; atomic so the health monitor
    /// can widen serve-stale aggressiveness at runtime.
    stale_window_micros: AtomicU64,
    /// Optional persistent second tier (write-behind + warm restart).
    disk: Option<Arc<DiskTier>>,
    metrics: CacheMetrics,
}

impl Core {
    fn stale_window(&self) -> Duration {
        Duration::from_micros(self.stale_window_micros.load(Ordering::Relaxed))
    }

    /// Reads `key` under its shard lock. A fresh entry — and a stale one
    /// when `take_stale` — has its recency refreshed (an entry serving
    /// as degraded output must not be the next LRU victim); a dead entry
    /// is dropped whichever API touched it. Counts only expirations;
    /// hit/miss accounting is the caller's.
    fn probe(&self, inner: &mut Inner, key: &str, take_stale: bool) -> Probe {
        let now = inner.now();
        inner.clock += 1;
        let clock = inner.clock;
        let Some(entry) = inner.entries.get_mut(key) else {
            return Probe::Absent;
        };
        let probe = match entry.standing(now, self.stale_window()) {
            Standing::Fresh => Probe::Fresh {
                value: entry.value.clone(),
                cost: entry.cost,
            },
            Standing::Stale(age) if take_stale => Probe::Stale {
                value: entry.value.clone(),
                age,
            },
            Standing::Stale(_) => return Probe::Absent,
            Standing::Dead => {
                inner.entries.remove(key);
                self.metrics.expirations.inc();
                return Probe::Absent;
            }
        };
        entry.last_used = clock;
        probe
    }

    fn shard_of(&self, key: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        (fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.shards[self.shard_of(key)]
    }

    /// Write-behind hook: persists an inserted artifact without
    /// blocking the serving path.
    fn write_behind(&self, key: &str, value: &Bytes, ttl: Option<Duration>, cost: Duration) {
        if let Some(tier) = &self.disk {
            tier.put(key, value.clone(), ttl, cost);
        }
    }

    /// Inserts under an already-held shard lock, evicting if the shard
    /// is full: entries past the stale window are pruned first, then an
    /// expired-but-stale entry is preferred as the victim over a live
    /// one, then LRU order decides.
    fn insert_locked(
        &self,
        shard: &Shard,
        inner: &mut Inner,
        key: &str,
        value: Bytes,
        ttl: Option<Duration>,
        cost: Duration,
    ) {
        let now = inner.now();
        let window = self.stale_window();
        inner.clock += 1;
        let last_used = inner.clock;
        if inner.entries.len() >= shard.capacity && !inner.entries.contains_key(key) {
            let before = inner.entries.len();
            inner
                .entries
                .retain(|_, e| !matches!(e.standing(now, window), Standing::Dead));
            self.metrics
                .expirations
                .add((before - inner.entries.len()) as u64);
            if inner.entries.len() >= shard.capacity {
                // Evict expired-but-stale entries before live ones;
                // within a class, the least recently used goes.
                if let Some(victim) = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| {
                        let fresh = matches!(e.standing(now, window), Standing::Fresh);
                        (fresh, e.last_used)
                    })
                    .map(|(k, _)| k.clone())
                {
                    inner.entries.remove(&victim);
                    self.metrics.evictions.inc();
                }
            }
        }
        inner.entries.insert(
            key.to_string(),
            Entry {
                value,
                expires_at: ttl.map(|t| now + t),
                last_used,
                cost,
            },
        );
    }
}

/// A concurrent TTL + LRU cache for rendered artifacts, lock-striped
/// across shards, with single-flight coalescing of concurrent misses.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use msite::cache::{CacheConfig, RenderCache};
///
/// let cache = RenderCache::new(CacheConfig::with_capacity(128));
/// cache.put("forum:snapshot", b"png bytes".to_vec(),
///           Some(Duration::from_secs(3600)), Duration::from_millis(1800));
/// assert!(cache.get("forum:snapshot").is_some());
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct RenderCache {
    core: Arc<Core>,
}

impl RenderCache {
    /// Creates a cache from `config`, preloading the disk tier's hot
    /// set when one is attached.
    ///
    /// # Panics
    ///
    /// Panics when `config.capacity` is zero.
    pub fn new(config: CacheConfig) -> RenderCache {
        let CacheConfig {
            capacity,
            stale_window,
            shards,
            disk,
            metrics,
        } = config;
        assert!(capacity > 0, "cache capacity must be positive");
        let count = shards
            .unwrap_or((capacity / 32).clamp(1, 16))
            .clamp(1, capacity);
        let shards = (0..count)
            .map(|i| Shard::new(capacity / count + usize::from(i < capacity % count)))
            .collect();
        let registry = metrics.unwrap_or_default();
        let counter = |name: &str| registry.counter(name, &[]);
        let metrics = CacheMetrics {
            hits: counter("msite_cache_hits_total"),
            misses: counter("msite_cache_misses_total"),
            evictions: counter("msite_cache_evictions_total"),
            expirations: counter("msite_cache_expirations_total"),
            stale_hits: counter("msite_cache_stale_hits_total"),
            coalesced: counter("msite_cache_coalesced_total"),
            warm_loaded: disk
                .is_some()
                .then(|| counter("msite_disk_warm_loaded_total")),
        };
        let cache = RenderCache {
            core: Arc::new(Core {
                shards,
                stale_window_micros: AtomicU64::new(stale_window.as_micros() as u64),
                disk,
                metrics,
            }),
        };
        cache.warm_load(capacity);
        cache
    }

    /// Preloads the most recently persisted live artifacts into the
    /// memory tier (warm restart).
    fn warm_load(&self, limit: usize) {
        let (Some(tier), Some(warm_loaded)) = (&self.core.disk, &self.core.metrics.warm_loaded)
        else {
            return;
        };
        for key in tier.hot_keys(limit) {
            let Some(record) = tier.get(&key) else {
                continue;
            };
            if let DiskFreshness::Fresh(ttl) = record.freshness {
                let shard = self.core.shard(&key);
                let mut inner = shard.inner.lock();
                self.core
                    .insert_locked(shard, &mut inner, &key, record.value, ttl, record.cost);
                drop(inner);
                warm_loaded.inc();
            }
        }
    }

    /// The configured stale window.
    pub fn stale_window(&self) -> Duration {
        self.core.stale_window()
    }

    /// Adjusts the stale window at runtime — the health monitor widens
    /// it under duress (serve stale rather than shed) and restores the
    /// configured width when the system recovers.
    pub fn set_stale_window(&self, window: Duration) {
        self.core
            .stale_window_micros
            .store(window.as_micros() as u64, Ordering::Relaxed);
    }

    /// The persistent tier, when one is attached.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.core.disk.as_ref()
    }

    /// Statistics of the persistent tier (`None` when memory-only).
    pub fn disk_stats(&self) -> Option<crate::persist::DiskTierStats> {
        self.core.disk.as_ref().map(|tier| tier.stats())
    }

    /// Entries preloaded from disk at construction (warm restart).
    pub fn warm_loaded(&self) -> u64 {
        self.core
            .metrics
            .warm_loaded
            .as_ref()
            .map_or(0, |c| c.get())
    }

    /// Blocks until the disk tier's write-behind queue has drained.
    /// No-op when memory-only.
    pub fn flush_disk(&self) {
        if let Some(tier) = &self.core.disk {
            tier.flush();
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The shard index `key` maps to (FNV-1a).
    pub fn shard_of(&self, key: &str) -> usize {
        self.core.shard_of(key)
    }

    /// The entry bound of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= shard_count()`.
    pub fn shard_capacity(&self, index: usize) -> usize {
        self.core.shards[index].capacity
    }

    /// Entries currently stored in shard `index` (including entries
    /// whose stale window has lapsed but that have not been touched).
    ///
    /// # Panics
    ///
    /// Panics when `index >= shard_count()`.
    pub fn shard_len(&self, index: usize) -> usize {
        self.core.shards[index].inner.lock().entries.len()
    }

    /// Advances the cache's notion of "now" by `delta` — a harness hook
    /// that makes TTL/stale-window tests deterministic without sleeping.
    pub fn advance_clock(&self, delta: Duration) {
        for shard in self.core.shards.iter() {
            shard.inner.lock().time_offset += delta;
        }
    }

    /// Inserts an artifact. `ttl == None` means "until evicted". `cost`
    /// records how long the artifact took to produce, feeding the
    /// amortization accounting.
    pub fn put(&self, key: &str, value: impl Into<Bytes>, ttl: Option<Duration>, cost: Duration) {
        let value = value.into();
        let shard = self.core.shard(key);
        let mut inner = shard.inner.lock();
        self.core
            .insert_locked(shard, &mut inner, key, value.clone(), ttl, cost);
        drop(inner);
        self.core.write_behind(key, &value, ttl, cost);
    }

    /// Fetches a live artifact, refreshing its recency. Every hit adds
    /// the entry's production cost to the amortized-savings counter.
    /// Expired entries are never returned here (use [`Self::lookup`] for
    /// stale fallback); entries past the stale window are dropped.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        match self.lookup_at(key, false) {
            Lookup::Fresh(value) => Some(value),
            Lookup::Stale { .. } | Lookup::Miss => None,
        }
    }

    /// Fetches an artifact, reporting freshness: fresh entries behave
    /// like [`Self::get`]; expired entries inside the stale window come
    /// back as [`Lookup::Stale`] with their age past expiry.
    pub fn lookup(&self, key: &str) -> Lookup {
        self.lookup_at(key, true)
    }

    fn lookup_at(&self, key: &str, allow_stale: bool) -> Lookup {
        let metrics = &self.core.metrics;
        let mut inner = self.core.shard(key).inner.lock();
        match self.core.probe(&mut inner, key, allow_stale) {
            Probe::Fresh { value, cost } => {
                metrics.hits.inc();
                inner.amortized += cost;
                Lookup::Fresh(value)
            }
            Probe::Stale { value, age } => {
                metrics.stale_hits.inc();
                Lookup::Stale { value, age }
            }
            Probe::Absent => {
                metrics.misses.inc();
                drop(inner);
                self.lookup_disk(key, allow_stale)
            }
        }
    }

    /// Memory-miss fallback: consult the persistent tier. A fresh
    /// checksum-verified artifact is promoted into the memory tier
    /// (without re-persisting) and served; an expired one is served
    /// stale when its age fits the stale window. The preceding memory
    /// miss stays counted — disk recoveries surface in
    /// [`Self::disk_stats`], not in [`CacheStats`].
    fn lookup_disk(&self, key: &str, allow_stale: bool) -> Lookup {
        let Some(record) = self.core.disk.as_ref().and_then(|tier| tier.get(key)) else {
            return Lookup::Miss;
        };
        match record.freshness {
            DiskFreshness::Fresh(ttl) => {
                let shard = self.core.shard(key);
                let mut inner = shard.inner.lock();
                let value = record.value.clone();
                self.core
                    .insert_locked(shard, &mut inner, key, value, ttl, record.cost);
                Lookup::Fresh(record.value)
            }
            DiskFreshness::Expired(age) if allow_stale && age <= self.stale_window() => {
                Lookup::Stale {
                    value: record.value,
                    age,
                }
            }
            DiskFreshness::Expired(_) => Lookup::Miss,
        }
    }

    /// Claims the flight for `key`: the one single-flight primitive
    /// every other entry point wraps.
    ///
    /// A fresh entry answers [`Claim::Hit`] (a fresh artifact on the
    /// disk tier is promoted first). Otherwise the first caller gets
    /// [`Claim::Led`] and must settle the [`ExternalFlight`] handle;
    /// concurrent callers wait on that flight and get
    /// [`Claim::Shared`] or, when the leader fails it,
    /// [`Claim::Failed`]. An abandoned flight sends its waiters around
    /// again, and one of them leads the retry. `wait_budget` bounds how
    /// long a waiter blocks (`None` = indefinitely): on expiry it falls
    /// back to a stale-window entry ([`Claim::Stale`]) or reports
    /// [`Claim::TimedOut`]. A stale-window entry never short-circuits a
    /// render: it is only the fallback.
    pub fn lead_or_join<E>(&self, key: &str, wait_budget: Option<Duration>) -> Claim<E>
    where
        E: Clone + Send + Sync + 'static,
    {
        let deadline = wait_budget.map(|budget| Instant::now() + budget);
        let shard = self.core.shard(key);
        let metrics = &self.core.metrics;
        let mut disk_checked = self.core.disk.is_none();
        let mut counted_miss = false;
        loop {
            let mut inner = shard.inner.lock();
            if let Probe::Fresh { value, cost } = self.core.probe(&mut inner, key, false) {
                metrics.hits.inc();
                inner.amortized += cost;
                return Claim::Hit(value);
            }
            if !std::mem::replace(&mut disk_checked, true) {
                // A fresh artifact on disk is promoted and then hit,
                // instead of electing a render leader.
                drop(inner);
                self.lookup_disk(key, false);
                continue;
            }
            if !std::mem::replace(&mut counted_miss, true) {
                metrics.misses.inc();
            }
            let Some(flight) = inner.flights.get(key).map(Arc::clone) else {
                let flight = Arc::new(InFlight::default());
                inner.flights.insert(key.to_string(), Arc::clone(&flight));
                return Claim::Led(ExternalFlight {
                    core: Arc::clone(&self.core),
                    key: key.to_string(),
                    flight,
                    settled: false,
                });
            };
            flight.waiters.fetch_add(1, Ordering::Relaxed);
            drop(inner);
            match flight.wait(deadline) {
                Some(Ok(value)) => {
                    metrics.coalesced.inc();
                    return Claim::Shared(value);
                }
                Some(Err(error)) => match error.downcast_ref::<E>() {
                    Some(error) => return Claim::Failed(error.clone()),
                    // The leader let go without an answer, or a flight
                    // with another error type raced us on this key and
                    // the wait is unbounded: go around, possibly to lead.
                    None if error.is::<LeaderAbandoned>() || deadline.is_none() => continue,
                    None => {}
                },
                None => {}
            }
            // The budget is spent (or a foreign-typed failure came back):
            // serve the stale window if possible. A fresh entry can land
            // in the instant the wait gave up — that still counts as
            // coalesced.
            let mut inner = shard.inner.lock();
            return match self.core.probe(&mut inner, key, true) {
                Probe::Fresh { value, .. } => {
                    metrics.coalesced.inc();
                    Claim::Shared(value)
                }
                Probe::Stale { value, age } => {
                    metrics.stale_hits.inc();
                    Claim::Stale { value, age }
                }
                Probe::Absent => Claim::TimedOut,
            };
        }
    }

    /// Fetches, or computes-and-stores on miss, coalescing concurrent
    /// misses into one `produce()` (single flight). The closure returns
    /// the artifact plus its production cost. Waits are unbounded, so
    /// every caller gets a value; a stale-window entry is re-rendered,
    /// never served.
    pub fn get_or_insert_with(
        &self,
        key: &str,
        ttl: Option<Duration>,
        produce: impl FnOnce() -> (Bytes, Duration),
    ) -> Bytes {
        match self.render_flight::<std::convert::Infallible>(key, ttl, None, || Ok(produce())) {
            Flight::Hit(value) | Flight::Led { value, .. } | Flight::Shared(value) => value,
            Flight::Stale { .. } | Flight::TimedOut => unreachable!("unbounded waits never expire"),
            Flight::Failed(error) => match error {},
        }
    }

    /// [`Self::lead_or_join`] with the leader's work as a closure: the
    /// leader runs the fallible `produce()` outside the cache lock and
    /// settles the flight with its outcome — a value is cached and
    /// shared, an error caches nothing and reaches every waiter as a
    /// clone. A panicking `produce()` abandons the flight.
    pub fn render_flight<E>(
        &self,
        key: &str,
        ttl: Option<Duration>,
        wait_budget: Option<Duration>,
        produce: impl FnOnce() -> Result<(Bytes, Duration), E>,
    ) -> Flight<E>
    where
        E: Clone + Send + Sync + 'static,
    {
        match self.lead_or_join(key, wait_budget) {
            Claim::Hit(value) => Flight::Hit(value),
            Claim::Shared(value) => Flight::Shared(value),
            Claim::Stale { value, age } => Flight::Stale { value, age },
            Claim::TimedOut => Flight::TimedOut,
            Claim::Failed(error) => Flight::Failed(error),
            Claim::Led(mut leader) => match produce() {
                Ok((value, cost)) => Flight::Led {
                    shared_with: leader.settle(Ok((value.clone(), ttl, cost))),
                    value,
                },
                Err(error) => {
                    leader.fail(error.clone());
                    Flight::Failed(error)
                }
            },
        }
    }

    /// Waits (up to `budget`, `None` = indefinitely) for an in-flight
    /// render of `key` to complete, returning its value on success.
    /// Returns `None` immediately when no flight is registered — this
    /// is an observation hook, not a lookup, and touches no statistics.
    pub fn join_flight(&self, key: &str, budget: Option<Duration>) -> Option<Bytes> {
        let shard = self.core.shard(key);
        let flight = shard.inner.lock().flights.get(key).cloned()?;
        flight.wait(budget.map(|b| Instant::now() + b))?.ok()
    }

    /// Number of flights currently registered (renders in progress).
    pub fn in_flight(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.inner.lock().flights.len())
            .sum()
    }

    /// Drops an entry (from the disk tier too, when one is attached).
    pub fn invalidate(&self, key: &str) {
        self.core.shard(key).inner.lock().entries.remove(key);
        if let Some(tier) = &self.core.disk {
            tier.forget(key);
        }
    }

    /// Drops everything (in-flight registrations are untouched).
    pub fn clear(&self) {
        for shard in self.core.shards.iter() {
            shard.inner.lock().entries.clear();
        }
        if let Some(tier) = &self.core.disk {
            tier.forget_all();
        }
    }

    /// Number of usable entries: fresh plus stale-window. Entries whose
    /// stale window has lapsed still occupy their slot until touched or
    /// pruned, but are no longer counted here.
    pub fn len(&self) -> usize {
        let window = self.stale_window();
        self.core
            .shards
            .iter()
            .map(|shard| {
                let inner = shard.inner.lock();
                let now = inner.now();
                inner
                    .entries
                    .values()
                    .filter(|e| !matches!(e.standing(now, window), Standing::Dead))
                    .count()
            })
            .sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics so far, read from the registry counters.
    pub fn stats(&self) -> CacheStats {
        let m = &self.core.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            expirations: m.expirations.get(),
            stale_hits: m.stale_hits.get(),
            coalesced: m.coalesced.get(),
        }
    }

    /// Total rendering time saved by cache hits — the paper's
    /// "amortizing rendering costs across many client sessions".
    pub fn amortized_savings(&self) -> Duration {
        self.core
            .shards
            .iter()
            .map(|s| s.inner.lock().amortized)
            .sum()
    }
}

/// Leadership of one flight, handed out as [`Claim::Led`]. It owns what
/// it needs to publish, so a leader may settle it after the request
/// that claimed it has returned (the streamed entry does).
///
/// Settle it exactly one way: [`complete`](Self::complete) caches the
/// artifact (and writes it behind to the disk tier) and wakes every
/// waiter with it; [`fail`](Self::fail) caches nothing and wakes every
/// waiter with the error, which they return without retrying; dropping
/// the handle abandons the flight, and the waiters retry and elect a
/// new leader.
pub struct ExternalFlight {
    core: Arc<Core>,
    key: String,
    flight: Arc<InFlight>,
    settled: bool,
}

impl ExternalFlight {
    /// Publishes the finished artifact to the cache and to every
    /// waiter.
    pub fn complete(mut self, value: impl Into<Bytes>, ttl: Option<Duration>, cost: Duration) {
        self.settle(Ok((value.into(), ttl, cost)));
    }

    /// Publishes `error` to every waiter; waiters joined as
    /// `lead_or_join::<E>` return it as [`Claim::Failed`].
    pub fn fail<E: Send + Sync + 'static>(mut self, error: E) {
        self.settle(Err(Arc::new(error)));
    }

    /// The one publish path (complete, fail and abandon): caches a
    /// value, frees the registry slot, then wakes the waiters — after
    /// the slot is free, so a retrying waiter cannot rejoin this flight.
    /// Returns how many waiters were parked on the flight.
    fn settle(&mut self, outcome: Result<(Bytes, Option<Duration>, Duration), FlightError>) -> u64 {
        self.settled = true;
        let shard = self.core.shard(&self.key);
        let mut inner = shard.inner.lock();
        if let Ok((value, ttl, cost)) = &outcome {
            self.core
                .insert_locked(shard, &mut inner, &self.key, value.clone(), *ttl, *cost);
        }
        // The slot is this flight's until now: claimants only register
        // on a vacant key, and only settling vacates it.
        inner.flights.remove(&self.key);
        drop(inner);
        let result = outcome.map(|(value, ttl, cost)| {
            self.core.write_behind(&self.key, &value, ttl, cost);
            value
        });
        self.flight.result.set(result);
        self.flight.waiters.load(Ordering::Relaxed)
    }
}

impl Drop for ExternalFlight {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(Err(Arc::new(LeaderAbandoned)));
        }
    }
}

impl std::fmt::Debug for ExternalFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalFlight")
            .field("key", &self.key)
            .field("settled", &self.settled)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Fingerprint-keyed subtree tier
// ---------------------------------------------------------------------------

/// Statistics snapshot for a [`SubtreeCache`], read from its registry
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeCacheStats {
    /// Lookups that found a cached artifact, i.e. subpages reused
    /// (`msite_subtrees_reused_total`).
    pub hits: u64,
    /// Lookups that found nothing (`msite_subtrees_recomputed_total`).
    pub misses: u64,
    /// LRU evictions (`msite_subtree_cache_evictions_total`).
    pub evictions: u64,
}

struct SubtreeEntry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

struct SubtreeInner {
    map: HashMap<u64, SubtreeEntry>,
    tick: u64,
}

/// The incremental re-adaptation tier: finished per-subtree artifacts
/// keyed by a content fingerprint of *everything* that went into
/// building them (the source subtree's serialization fingerprint plus
/// the builder's assembled fragments and the serving base). A hit
/// therefore guarantees a byte-identical artifact — the cache can hand
/// it back without re-running assembly or the browser pre-render.
///
/// Values are type-erased (`Arc<dyn Any>`) so this tier stays agnostic
/// of the pipeline's artifact types; the emit stage downcasts on read.
/// Unlike [`RenderCache`] there is no TTL: fingerprints are
/// self-invalidating (changed content changes the key), so entries only
/// leave via the LRU bound.
pub struct SubtreeCache {
    inner: Mutex<SubtreeInner>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl std::fmt::Debug for SubtreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SubtreeCache {
    /// Creates a tier bounded to `capacity` artifacts (min 1), counting
    /// into a private registry.
    pub fn new(capacity: usize) -> SubtreeCache {
        SubtreeCache::with_metrics(capacity, &MetricsRegistry::new())
    }

    /// [`SubtreeCache::new`], counting into `registry`.
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> SubtreeCache {
        SubtreeCache {
            inner: Mutex::new(SubtreeInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: registry.counter("msite_subtrees_reused_total", &[]),
            misses: registry.counter("msite_subtrees_recomputed_total", &[]),
            evictions: registry.counter("msite_subtree_cache_evictions_total", &[]),
        }
    }

    /// Looks an artifact up by fingerprint, refreshing its LRU slot.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fingerprint) {
            Some(entry) => {
                entry.last_used = tick;
                let value = Arc::clone(&entry.value);
                self.hits.inc();
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores an artifact under its fingerprint, evicting the
    /// least-recently-used entry when over capacity.
    pub fn put(&self, fingerprint: u64, value: Arc<dyn Any + Send + Sync>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            fingerprint,
            SubtreeEntry {
                value,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&oldest);
            self.evictions.inc();
        }
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when the tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every artifact (stats are kept).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SubtreeCacheStats {
        SubtreeCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put("a", b"one".to_vec(), None, Duration::ZERO);
        assert_eq!(cache.get("a").as_deref(), Some(&b"one"[..]));
        assert_eq!(cache.get("b"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put(
            "x",
            b"v".to_vec(),
            Some(Duration::from_millis(20)),
            Duration::ZERO,
        );
        assert!(cache.get("x").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("x").is_none());
        assert_eq!(cache.stats().expirations, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = RenderCache::new(CacheConfig::with_capacity(2));
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        let _ = cache.get("a"); // refresh a
        cache.put("c", b"3".to_vec(), None, Duration::ZERO);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwrite_same_key_no_eviction() {
        let cache = RenderCache::new(CacheConfig::with_capacity(2));
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        cache.put("a", b"1b".to_vec(), None, Duration::ZERO);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get("a").as_deref(), Some(&b"1b"[..]));
    }

    #[test]
    fn get_or_insert_computes_once() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with("k", None, || {
                calls += 1;
                (Bytes::from_static(b"computed"), Duration::from_millis(100))
            });
            assert_eq!(&v[..], b"computed");
        }
        assert_eq!(calls, 1);
        // Two hits amortized 100 ms each.
        assert_eq!(cache.amortized_savings(), Duration::from_millis(200));
    }

    #[test]
    fn stale_entries_rerender_and_serve_only_as_fallback() {
        let cache = RenderCache::new(CacheConfig {
            stale_window: Duration::from_secs(60),
            ..CacheConfig::with_capacity(4)
        });
        let ttl = Some(Duration::from_secs(1));
        cache.put("k", b"old".to_vec(), ttl, Duration::ZERO);
        cache.advance_clock(Duration::from_secs(10));
        // One stale policy: a stale-window entry never short-circuits a
        // render.
        let v = cache.get_or_insert_with("k", ttl, || (Bytes::from_static(b"new"), Duration::ZERO));
        assert_eq!(&v[..], b"new");
        let stats = cache.stats();
        assert_eq!((stats.stale_hits, stats.misses), (0, 1));
        // Stale is the fallback of a waiter whose budget runs out while
        // another caller renders.
        cache.advance_clock(Duration::from_secs(10));
        let Claim::Led(leader) = cache.lead_or_join::<()>("k", None) else {
            panic!("a stale entry must elect a render leader");
        };
        match cache.lead_or_join::<()>("k", Some(Duration::from_millis(10))) {
            Claim::Stale { value, age } => {
                assert_eq!(&value[..], b"new");
                assert!(age >= Duration::from_secs(9));
            }
            other => panic!("expected the stale fallback, got {other:?}"),
        }
        drop(leader);
        assert_eq!(cache.stats().stale_hits, 1);
    }

    /// Waiters parked on `key`'s flight (0 when none is registered).
    fn parked(cache: &RenderCache, key: &str) -> u64 {
        let inner = cache.core.shard(key).inner.lock();
        inner
            .flights
            .get(key)
            .map_or(0, |f| f.waiters.load(Ordering::Relaxed))
    }

    #[test]
    fn dropped_leader_handle_sends_a_render_flight_waiter_to_lead() {
        let cache = RenderCache::new(CacheConfig::with_capacity(8));
        let produced = AtomicUsize::new(0);
        let Claim::Led(leader) = cache.lead_or_join::<()>("k", None) else {
            panic!("a cold key must elect a leader");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                cache.render_flight::<()>("k", None, None, || {
                    produced.fetch_add(1, Ordering::SeqCst);
                    Ok((Bytes::from_static(b"v"), Duration::ZERO))
                })
            });
            while parked(&cache, "k") == 0 {
                std::thread::yield_now();
            }
            drop(leader);
            let out = waiter.join().unwrap();
            assert!(matches!(out, Flight::Led { .. }), "got {out:?}");
        });
        assert_eq!(produced.load(Ordering::SeqCst), 1, "exactly one retry");
        assert_eq!(cache.get("k").as_deref(), Some(&b"v"[..]));
        assert_eq!(cache.in_flight(), 0);
    }

    #[test]
    fn failed_leader_handle_reaches_every_waiter_without_retry() {
        #[derive(Clone, Debug, PartialEq)]
        struct Boom;

        const N: u64 = 3;
        let cache = RenderCache::new(CacheConfig::with_capacity(8));
        let Claim::Led(leader) = cache.lead_or_join::<Boom>("k", None) else {
            panic!("a cold key must elect a leader");
        };
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..N)
                .map(|_| s.spawn(|| cache.lead_or_join::<Boom>("k", None)))
                .collect();
            while parked(&cache, "k") < N {
                std::thread::yield_now();
            }
            leader.fail(Boom);
            for waiter in waiters {
                let out = waiter.join().unwrap();
                assert!(matches!(out, Claim::Failed(Boom)), "got {out:?}");
            }
        });
        assert_eq!(cache.stats().coalesced, 0, "a failure is not shared");
        assert_eq!(cache.in_flight(), 0);
        assert!(cache.get("k").is_none(), "a failed flight caches nothing");
    }

    #[test]
    fn panicking_closure_leader_promotes_a_lead_or_join_waiter() {
        let cache = RenderCache::new(CacheConfig::with_capacity(8));
        std::thread::scope(|s| {
            let crashed = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.render_flight::<()>("k", None, None, || {
                        while parked(&cache, "k") == 0 {
                            std::thread::yield_now();
                        }
                        panic!("simulated renderer crash")
                    })
                }))
            });
            let waiter = s.spawn(|| {
                while cache.in_flight() == 0 {
                    std::thread::yield_now();
                }
                match cache.lead_or_join::<()>("k", None) {
                    Claim::Led(leader) => leader.complete(b"retry".to_vec(), None, Duration::ZERO),
                    other => panic!("the waiter must be promoted, got {other:?}"),
                }
            });
            assert!(crashed.join().unwrap().is_err());
            waiter.join().unwrap();
        });
        assert_eq!(cache.get("k").as_deref(), Some(&b"retry"[..]));
        assert_eq!(cache.stats().coalesced, 0);
    }

    #[test]
    fn amortization_accumulates_per_hit() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put("snap", b"png".to_vec(), None, Duration::from_secs(2));
        for _ in 0..5 {
            let _ = cache.get("snap");
        }
        assert_eq!(cache.amortized_savings(), Duration::from_secs(10));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(RenderCache::new(CacheConfig::with_capacity(64)));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 7 + i) % 32);
                        cache.get_or_insert_with(&key, None, || {
                            (Bytes::from(vec![t as u8]), Duration::from_millis(1))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.invalidate("a");
        assert!(cache.get("a").is_none());
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_window_serves_expired_via_lookup_only() {
        let cache = RenderCache::new(CacheConfig {
            stale_window: Duration::from_secs(60),
            ..CacheConfig::with_capacity(4)
        });
        cache.put(
            "snap",
            b"png".to_vec(),
            Some(Duration::from_secs(10)),
            Duration::from_millis(500),
        );
        assert!(matches!(cache.lookup("snap"), Lookup::Fresh(_)));
        cache.advance_clock(Duration::from_secs(30));
        // get() hides stale entries but keeps them.
        assert!(cache.get("snap").is_none());
        match cache.lookup("snap") {
            Lookup::Stale { value, age } => {
                assert_eq!(&value[..], b"png");
                assert!(age >= Duration::from_secs(20));
            }
            other => panic!("expected stale, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.expirations, 0, "stale entries are retained");
        // Past the stale window the entry is gone for every API.
        cache.advance_clock(Duration::from_secs(60));
        assert_eq!(cache.lookup("snap"), Lookup::Miss);
        assert_eq!(cache.stats().expirations, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn refreshing_put_revives_stale_entry() {
        let cache = RenderCache::new(CacheConfig {
            stale_window: Duration::from_secs(60),
            ..CacheConfig::with_capacity(4)
        });
        cache.put(
            "k",
            b"old".to_vec(),
            Some(Duration::from_secs(5)),
            Duration::ZERO,
        );
        cache.advance_clock(Duration::from_secs(10));
        assert!(matches!(cache.lookup("k"), Lookup::Stale { .. }));
        cache.put(
            "k",
            b"new".to_vec(),
            Some(Duration::from_secs(5)),
            Duration::ZERO,
        );
        assert_eq!(cache.get("k").as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn hit_ratio() {
        let cache = RenderCache::new(CacheConfig::with_capacity(4));
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        let _ = cache.get("a");
        let _ = cache.get("a");
        let _ = cache.get("zz");
        let ratio = cache.stats().hit_ratio();
        assert!((ratio - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_counts_stale_lookups_in_denominator() {
        let cache = RenderCache::new(CacheConfig {
            stale_window: Duration::from_secs(60),
            ..CacheConfig::with_capacity(4)
        });
        cache.put(
            "a",
            b"1".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        let _ = cache.get("a");
        let _ = cache.get("a");
        cache.advance_clock(Duration::from_secs(10));
        assert!(matches!(cache.lookup("a"), Lookup::Stale { .. }));
        let _ = cache.get("zz");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stale_hits),
            (2, 1, 1),
            "precondition for the ratio below"
        );
        // Degraded service must not inflate the ratio: 2 / (2 + 1 + 1).
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expired_entries_are_pruned_before_evicting_live_ones() {
        let cache = RenderCache::new(CacheConfig::with_capacity(2));
        cache.put(
            "dead",
            b"x".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        cache.put("live", b"y".to_vec(), None, Duration::ZERO);
        cache.advance_clock(Duration::from_secs(5));
        assert_eq!(cache.len(), 1, "len reports usable entries only");
        cache.put("new", b"z".to_vec(), None, Duration::ZERO);
        assert!(
            cache.get("live").is_some(),
            "the live entry must survive while a dead one holds a slot"
        );
        assert!(cache.get("new").is_some());
        let stats = cache.stats();
        assert_eq!(
            stats.evictions, 0,
            "pruning a dead entry is not an eviction"
        );
        assert_eq!(stats.expirations, 1);
    }

    #[test]
    fn stale_entries_are_evicted_before_fresh_ones() {
        let cache = RenderCache::new(CacheConfig {
            stale_window: Duration::from_secs(100),
            ..CacheConfig::with_capacity(2)
        });
        cache.put(
            "stale",
            b"x".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        cache.put("fresh", b"y".to_vec(), None, Duration::ZERO);
        cache.advance_clock(Duration::from_secs(5));
        // Bump the stale entry's recency above the fresh one's: the
        // victim choice must still prefer the expired entry.
        assert!(matches!(cache.lookup("stale"), Lookup::Stale { .. }));
        cache.put("new", b"z".to_vec(), None, Duration::ZERO);
        assert!(cache.get("fresh").is_some());
        assert_eq!(cache.lookup("stale"), Lookup::Miss);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for (capacity, shards) in [(7, 3), (16, 4), (256, 8), (5, 10), (1, 1)] {
            let cache = RenderCache::new(CacheConfig {
                shards: Some(shards),
                ..CacheConfig::with_capacity(capacity)
            });
            assert!(cache.shard_count() <= capacity);
            let total: usize = (0..cache.shard_count())
                .map(|i| cache.shard_capacity(i))
                .sum();
            assert_eq!(total, capacity, "capacity {capacity} shards {shards}");
        }
    }

    #[test]
    fn small_caches_collapse_to_one_shard() {
        assert_eq!(
            RenderCache::new(CacheConfig::with_capacity(2)).shard_count(),
            1
        );
        assert_eq!(
            RenderCache::new(CacheConfig::with_capacity(32)).shard_count(),
            1
        );
        assert_eq!(
            RenderCache::new(CacheConfig::with_capacity(256)).shard_count(),
            8
        );
    }

    #[test]
    fn subtree_cache_round_trips_typed_artifacts() {
        let cache = SubtreeCache::new(8);
        assert!(cache.is_empty());
        cache.put(
            7,
            Arc::new("subpage-7".to_string()) as Arc<dyn Any + Send + Sync>,
        );
        let hit = cache
            .get(7)
            .expect("fingerprint 7 was stored")
            .downcast::<String>()
            .expect("value downcasts to the stored type");
        assert_eq!(*hit, "subpage-7");
        assert!(cache.get(8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn subtree_cache_evicts_least_recently_used() {
        let cache = SubtreeCache::new(2);
        cache.put(1, Arc::new(1u32) as Arc<dyn Any + Send + Sync>);
        cache.put(2, Arc::new(2u32) as Arc<dyn Any + Send + Sync>);
        // Touch 1 so 2 becomes the LRU entry, then overflow.
        assert!(cache.get(1).is_some());
        cache.put(3, Arc::new(3u32) as Arc<dyn Any + Send + Sync>);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn subtree_cache_capacity_floor_is_one() {
        let cache = SubtreeCache::new(0);
        cache.put(1, Arc::new(()) as Arc<dyn Any + Send + Sync>);
        cache.put(2, Arc::new(()) as Arc<dyn Any + Send + Sync>);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_some());
    }
}
