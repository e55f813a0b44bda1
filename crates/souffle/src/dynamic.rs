//! Dynamic-shape support via multi-version kernels (§9, "Reusing
//! dynamic-shaped tensors"): "we can generate multiple versions of a
//! kernel and choose the appropriate one based on shape information
//! available at execution time".
//!
//! [`Souffle::compile_multi_version`] compiles one [`Compiled`] artifact
//! per shape bucket; [`MultiVersion::select`] picks the smallest bucket
//! covering the runtime extent (inputs are padded up to the bucket).
//!
//! [`ShapeCache`] is the lazy successor to the eager bucket table: keyed by
//! [`ShapeClass`] (structural program signature × bucket vector), it
//! compiles a bucket on first miss — exactly once even under concurrent
//! misses — and memoizes hits. `SOUFFLE_SHAPE_CACHE=off` disables the
//! memoization (every lookup rebuilds; results are identical), which the CI
//! sweep uses to prove the cache is semantics-free.

use crate::{Compiled, Souffle};
use souffle_te::TeProgram;
use souffle_trace::Tracer;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// A set of compiled shape buckets for one dynamic extent (e.g. sequence
/// length).
#[derive(Debug, Clone)]
pub struct MultiVersion {
    /// `(bucket extent, compiled artifact)`, sorted ascending by extent.
    buckets: Vec<(i64, Compiled)>,
}

impl MultiVersion {
    /// The bucket extents, ascending.
    pub fn bucket_sizes(&self) -> Vec<i64> {
        self.buckets.iter().map(|(s, _)| *s).collect()
    }

    /// Number of compiled versions.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no versions were compiled.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Picks the smallest bucket whose extent covers `runtime_extent`;
    /// `None` when the extent exceeds every bucket (the caller must fall
    /// back to a recompile).
    pub fn select(&self, runtime_extent: i64) -> Option<&Compiled> {
        self.buckets
            .iter()
            .find(|(s, _)| *s >= runtime_extent)
            .map(|(_, c)| c)
    }

    /// The bucket extent [`MultiVersion::select`] would pad to.
    pub fn selected_bucket(&self, runtime_extent: i64) -> Option<i64> {
        self.buckets
            .iter()
            .map(|(s, _)| *s)
            .find(|&s| s >= runtime_extent)
    }
}

impl Souffle {
    /// Compiles one version of the model per shape bucket. `build` maps a
    /// bucket extent to the model's TE program at that extent.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or not strictly ascending.
    pub fn compile_multi_version(
        &self,
        buckets: &[i64],
        build: impl Fn(i64) -> TeProgram,
    ) -> MultiVersion {
        assert!(!buckets.is_empty(), "at least one shape bucket required");
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "buckets must be strictly ascending"
        );
        MultiVersion {
            buckets: buckets
                .iter()
                .map(|&s| (s, self.compile(&build(s))))
                .collect(),
        }
    }
}

/// Environment variable controlling the shape-bucketed kernel cache:
/// `off`/`0`/`false` disables memoization (every lookup rebuilds).
pub const SHAPE_CACHE_ENV: &str = "SOUFFLE_SHAPE_CACHE";

/// Cache key for one compiled shape bucket: the structural signature of the
/// symbolic program (from [`souffle_sched::program_signature`]) crossed with
/// the concrete bucket vector the request was rounded up to (e.g.
/// `[batch_bucket, seq_bucket]`). Two requests share a compiled artifact
/// exactly when they share a `ShapeClass`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Structural program signature (bucket-independent half of the key).
    pub sig: u64,
    /// Concrete bucket extents, one per dynamic dim, in declaration order.
    pub buckets: Vec<i64>,
}

impl ShapeClass {
    /// The bucket vector rendered for span names: `"4x64"`.
    pub fn bucket_label(&self) -> String {
        self.buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join("x")
    }
}

enum SlotState<V> {
    /// Some worker is compiling this bucket; waiters block on the condvar.
    Building,
    /// Compiled artifact, shared by every subsequent hit.
    Ready(Arc<V>),
    /// The build panicked and the slot left the map; waiters look the key
    /// up again.
    Abandoned,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

/// Resident entries with their last-touch stamp for LRU eviction.
type SlotMap<V> = HashMap<ShapeClass, (Arc<Slot<V>>, u64)>;

/// Held by the winner while it builds. If the build unwinds, dropping it
/// removes the key and wakes the waiters, so a panicking build cannot
/// leave its shape class in `Building` for good.
struct AbandonOnUnwind<'a, V> {
    slots: &'a Mutex<SlotMap<V>>,
    key: &'a ShapeClass,
    slot: &'a Arc<Slot<V>>,
}

impl<V> Drop for AbandonOnUnwind<'_, V> {
    fn drop(&mut self) {
        // Every update under these locks leaves the map and the slot
        // valid, so a poisoned guard is safe to use.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots
            .get(self.key)
            .is_some_and(|(s, _)| Arc::ptr_eq(s, self.slot))
        {
            slots.remove(self.key);
        }
        drop(slots);
        *self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = SlotState::Abandoned;
        self.slot.ready.notify_all();
    }
}

/// A lazy, thread-safe, optionally bounded cache of compiled shape buckets.
///
/// Semantics the serve property suite pins:
/// - **exactly-once compile**: concurrent lookups of a cold [`ShapeClass`]
///   run `build` once; the losers block until the artifact is ready and
///   share it (counted as hits — they did not compile).
/// - **counters**: every lookup bumps `shape_cache.hit` or
///   `shape_cache.miss` on the tracer; each build adds its wall time to
///   `shape_cache.compile_ms` and runs under a `compile:bucket:<label>`
///   span. Evictions bump `shape_cache.evict`.
/// - **eviction**: with a capacity, the least-recently-used *ready* entry
///   is dropped when a new class is inserted past the limit; recompiling an
///   evicted class must be bit-identical (the pipeline is deterministic).
/// - **off switch**: constructed disabled (`SOUFFLE_SHAPE_CACHE=off`),
///   every lookup is a miss that rebuilds — a semantics-free ablation.
/// - **panicking builds**: the panic reaches the caller that ran `build`;
///   the class leaves the cache and blocked lookups retry, so the next
///   lookup builds it afresh.
pub struct ShapeCache<V> {
    slots: Mutex<SlotMap<V>>,
    clock: Mutex<u64>,
    capacity: Option<usize>,
    enabled: bool,
}

impl<V> ShapeCache<V> {
    /// An unbounded cache honoring the `SOUFFLE_SHAPE_CACHE` override.
    pub fn new() -> Self {
        ShapeCache {
            slots: Mutex::new(HashMap::new()),
            clock: Mutex::new(0),
            capacity: None,
            enabled: souffle_te::env_flag(SHAPE_CACHE_ENV).unwrap_or(true),
        }
    }

    /// A cache with explicit memoization + capacity settings (capacity
    /// `None` = unbounded).
    pub fn with_settings(enabled: bool, capacity: Option<usize>) -> Self {
        ShapeCache {
            slots: Mutex::new(HashMap::new()),
            clock: Mutex::new(0),
            capacity,
            enabled,
        }
    }

    /// Whether memoization is on (off under `SOUFFLE_SHAPE_CACHE=off`).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of resident entries (ready or building).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident (ready or being built).
    pub fn contains(&self, key: &ShapeClass) -> bool {
        self.slots.lock().unwrap().contains_key(key)
    }

    /// Drops `key` if resident and ready; returns whether it was dropped.
    pub fn evict(&self, key: &ShapeClass, tracer: &Tracer) -> bool {
        let mut slots = self.slots.lock().unwrap();
        let ready = slots
            .get(key)
            .is_some_and(|(slot, _)| matches!(*slot.state.lock().unwrap(), SlotState::Ready(_)));
        if ready {
            slots.remove(key);
            tracer.add("shape_cache.evict", 1);
        }
        ready
    }

    fn tick(&self) -> u64 {
        let mut c = self.clock.lock().unwrap();
        *c += 1;
        *c
    }

    fn build_timed(key: &ShapeClass, tracer: &Tracer, build: impl FnOnce() -> V) -> V {
        let span = tracer.span(&format!("compile:bucket:{}", key.bucket_label()));
        let start = Instant::now();
        let v = build();
        tracer.add("shape_cache.compile_ms", start.elapsed().as_millis() as u64);
        span.end();
        v
    }

    /// Looks up `key`, compiling it with `build` on a miss. See the type
    /// docs for the hit/miss/once-only/eviction contract.
    pub fn get_or_build(
        &self,
        key: ShapeClass,
        tracer: &Tracer,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        if !self.enabled {
            tracer.add("shape_cache.miss", 1);
            return Arc::new(Self::build_timed(&key, tracer, build));
        }
        let (slot, winner) = {
            let mut slots = self.slots.lock().unwrap();
            let now = self.tick();
            match slots.get_mut(&key) {
                Some((slot, used)) => {
                    *used = now;
                    tracer.add("shape_cache.hit", 1);
                    (Arc::clone(slot), false)
                }
                None => {
                    tracer.add("shape_cache.miss", 1);
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Building),
                        ready: Condvar::new(),
                    });
                    slots.insert(key.clone(), (Arc::clone(&slot), now));
                    if let Some(cap) = self.capacity {
                        // Evict the least-recently-used ready entry (never
                        // the one being built, never a building slot).
                        while slots.len() > cap {
                            let lru = slots
                                .iter()
                                .filter(|(k, (s, _))| {
                                    **k != key
                                        && matches!(*s.state.lock().unwrap(), SlotState::Ready(_))
                                })
                                .min_by_key(|(_, (_, used))| *used)
                                .map(|(k, _)| k.clone());
                            match lru {
                                Some(k) => {
                                    slots.remove(&k);
                                    tracer.add("shape_cache.evict", 1);
                                }
                                None => break,
                            }
                        }
                    }
                    (slot, true)
                }
            }
        };
        if winner {
            let abandon = AbandonOnUnwind {
                slots: &self.slots,
                key: &key,
                slot: &slot,
            };
            let v = Arc::new(Self::build_timed(&key, tracer, build));
            std::mem::forget(abandon);
            let mut st = slot.state.lock().unwrap();
            *st = SlotState::Ready(Arc::clone(&v));
            slot.ready.notify_all();
            v
        } else {
            let mut st = slot.state.lock().unwrap();
            loop {
                match &*st {
                    SlotState::Ready(v) => return Arc::clone(v),
                    SlotState::Building => st = slot.ready.wait(st).unwrap(),
                    SlotState::Abandoned => break,
                }
            }
            drop(st);
            self.get_or_build(key, tracer, build)
        }
    }
}

impl<V> Default for ShapeCache<V> {
    fn default() -> Self {
        ShapeCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SouffleOptions;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    fn mlp_at(seq: i64) -> TeProgram {
        let mut p = TeProgram::new();
        let x = p.add_input("x", Shape::new(vec![seq, 32]), DType::F16);
        let w = p.add_weight("w", Shape::new(vec![32, 32]), DType::F16);
        let y = builders::matmul(&mut p, "mm", x, w);
        let y = builders::relu(&mut p, "relu", y);
        p.mark_output(y);
        p
    }

    #[test]
    fn selects_smallest_covering_bucket() {
        let souffle = Souffle::new(SouffleOptions::full());
        let mv = souffle.compile_multi_version(&[64, 128, 256], mlp_at);
        assert_eq!(mv.len(), 3);
        assert_eq!(mv.selected_bucket(50), Some(64));
        assert_eq!(mv.selected_bucket(64), Some(64));
        assert_eq!(mv.selected_bucket(65), Some(128));
        assert_eq!(mv.selected_bucket(256), Some(256));
        assert_eq!(mv.selected_bucket(257), None);
        assert!(mv.select(100).is_some());
        assert!(mv.select(1000).is_none());
    }

    #[test]
    fn larger_buckets_move_more_memory() {
        // (Latency at these tiny sizes is launch/parallelism dominated and
        // need not be monotone; traffic is.)
        let souffle = Souffle::new(SouffleOptions::full());
        let mv = souffle.compile_multi_version(&[64, 512], mlp_at);
        let small = souffle
            .simulate(mv.select(64).unwrap())
            .global_transfer_bytes();
        let large = souffle
            .simulate(mv.select(512).unwrap())
            .global_transfer_bytes();
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_buckets_panic() {
        let souffle = Souffle::new(SouffleOptions::full());
        let _ = souffle.compile_multi_version(&[128, 64], mlp_at);
    }

    fn key(sig: u64, buckets: &[i64]) -> ShapeClass {
        ShapeClass {
            sig,
            buckets: buckets.to_vec(),
        }
    }

    #[test]
    fn cache_hits_after_first_miss_and_pins_counters() {
        let tracer = Tracer::new();
        let cache: ShapeCache<i64> = ShapeCache::with_settings(true, None);
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache.get_or_build(key(7, &[4, 64]), &tracer, || {
                builds += 1;
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(builds, 1);
        let t = tracer.snapshot();
        assert_eq!(t.counters.get("shape_cache.miss"), Some(&1));
        assert_eq!(t.counters.get("shape_cache.hit"), Some(&2));
        assert!(t.spans.iter().any(|s| s.name == "compile:bucket:4x64"));
    }

    #[test]
    fn distinct_shape_classes_compile_separately() {
        let tracer = Tracer::new();
        let cache: ShapeCache<Vec<i64>> = ShapeCache::with_settings(true, None);
        let a = cache.get_or_build(key(1, &[8]), &tracer, || vec![8]);
        let b = cache.get_or_build(key(1, &[16]), &tracer, || vec![16]);
        let c = cache.get_or_build(key(2, &[8]), &tracer, || vec![88]);
        assert_eq!((*a)[0], 8);
        assert_eq!((*b)[0], 16);
        assert_eq!((*c)[0], 88);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn disabled_cache_rebuilds_every_lookup() {
        let tracer = Tracer::new();
        let cache: ShapeCache<i64> = ShapeCache::with_settings(false, None);
        let mut builds = 0;
        for _ in 0..3 {
            let _ = cache.get_or_build(key(7, &[4]), &tracer, || {
                builds += 1;
                1
            });
        }
        assert_eq!(builds, 3);
        assert_eq!(tracer.snapshot().counters.get("shape_cache.miss"), Some(&3));
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_drops_the_coldest_ready_entry() {
        let tracer = Tracer::new();
        let cache: ShapeCache<i64> = ShapeCache::with_settings(true, Some(2));
        let _ = cache.get_or_build(key(1, &[1]), &tracer, || 1);
        let _ = cache.get_or_build(key(1, &[2]), &tracer, || 2);
        // Touch [1] so [2] becomes the LRU, then overflow.
        let _ = cache.get_or_build(key(1, &[1]), &tracer, || unreachable!());
        let _ = cache.get_or_build(key(1, &[4]), &tracer, || 4);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key(1, &[1])));
        assert!(!cache.contains(&key(1, &[2])));
        assert_eq!(
            tracer.snapshot().counters.get("shape_cache.evict"),
            Some(&1)
        );
        // A recompile of the evicted class is a fresh miss.
        let again = cache.get_or_build(key(1, &[2]), &tracer, || 2);
        assert_eq!(*again, 2);
    }

    #[test]
    fn panicking_build_leaves_the_class_buildable() {
        let tracer = Tracer::new();
        let cache: Arc<ShapeCache<i64>> = Arc::new(ShapeCache::with_settings(true, None));
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(key(3, &[8]), &tracer, || panic!("build failed"))
        }));
        assert!(first.is_err());
        // A lookup that blocked on the wedged slot would never return, so
        // it runs on its own thread against a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let cache = Arc::clone(&cache);
            let tracer = tracer.clone();
            std::thread::spawn(move || {
                let v = cache.get_or_build(key(3, &[8]), &tracer, || 5);
                tx.send(*v).expect("the test waits for the result");
            })
        };
        let v = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("lookup after a panicked build returns");
        assert_eq!(v, 5);
        worker.join().expect("worker thread");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_cold_lookups_compile_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let tracer = Tracer::new();
        let cache: Arc<ShapeCache<u64>> = Arc::new(ShapeCache::with_settings(true, None));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let tracer = &tracer;
                scope.spawn(move || {
                    let v = cache.get_or_build(key(9, &[2, 16]), tracer, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so losers really block.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        7
                    });
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let t = tracer.snapshot();
        assert_eq!(t.counters.get("shape_cache.miss"), Some(&1));
        assert_eq!(t.counters.get("shape_cache.hit"), Some(&7));
    }
}
