//! Dynamic-shape support via shape-bucketed kernels (§9, "Reusing
//! dynamic-shaped tensors"): "we can generate multiple versions of a
//! kernel and choose the appropriate one based on shape information
//! available at execution time".
//!
//! [`ShapeCache`] holds those versions lazily: keyed by [`ShapeClass`]
//! (structural program signature × bucket vector), it compiles a bucket
//! on first miss — exactly once even under concurrent misses — and
//! memoizes it for good; inputs are padded up to the bucket. The cache
//! needs no bound: a model's shape classes are its finite bucket grid
//! (`|batch buckets| × |seq buckets|`), so it holds at most one variant
//! per grid cell.

use souffle_trace::Tracer;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

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

type SlotMap<V> = HashMap<ShapeClass, Arc<Slot<V>>>;

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
            .is_some_and(|s| Arc::ptr_eq(s, self.slot))
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

/// A lazy, thread-safe memo of compiled shape buckets: each
/// [`ShapeClass`] is built once and kept.
///
/// Semantics the serve property suite pins:
/// - **exactly-once compile**: concurrent lookups of a cold [`ShapeClass`]
///   run `build` once; the losers block until the artifact is ready and
///   share it (counted as hits — they did not compile).
/// - **counters**: every lookup bumps `shape_cache.hit` or
///   `shape_cache.miss` on the tracer; each build adds its wall time to
///   `shape_cache.compile_ms` and runs under a `compile:bucket:<label>`
///   span.
/// - **panicking builds**: the panic reaches the caller that ran `build`;
///   the class leaves the cache and blocked lookups retry, so the next
///   lookup builds it afresh.
pub struct ShapeCache<V> {
    slots: Mutex<SlotMap<V>>,
}

impl<V> ShapeCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        ShapeCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Number of resident entries (ready or building).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// docs for the hit/miss/once-only contract.
    pub fn get_or_build(
        &self,
        key: ShapeClass,
        tracer: &Tracer,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        let (slot, winner) = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(&key) {
                Some(slot) => {
                    tracer.add("shape_cache.hit", 1);
                    (Arc::clone(slot), false)
                }
                None => {
                    tracer.add("shape_cache.miss", 1);
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Building),
                        ready: Condvar::new(),
                    });
                    slots.insert(key.clone(), Arc::clone(&slot));
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
    use crate::{Souffle, SouffleOptions};
    use souffle_te::{builders, TeProgram};
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
    fn larger_buckets_move_more_memory() {
        // (Latency at these tiny sizes is launch/parallelism dominated and
        // need not be monotone; traffic is.)
        let souffle = Souffle::new(SouffleOptions::full());
        let traffic = |seq| {
            souffle
                .simulate(&souffle.compile(&mlp_at(seq)))
                .global_transfer_bytes()
        };
        let (small, large) = (traffic(64), traffic(512));
        assert!(large > small, "{large} vs {small}");
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
        let cache: ShapeCache<i64> = ShapeCache::new();
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
        let cache: ShapeCache<Vec<i64>> = ShapeCache::new();
        let a = cache.get_or_build(key(1, &[8]), &tracer, || vec![8]);
        let b = cache.get_or_build(key(1, &[16]), &tracer, || vec![16]);
        let c = cache.get_or_build(key(2, &[8]), &tracer, || vec![88]);
        assert_eq!((*a)[0], 8);
        assert_eq!((*b)[0], 16);
        assert_eq!((*c)[0], 88);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn panicking_build_leaves_the_class_buildable() {
        let tracer = Tracer::new();
        let cache: Arc<ShapeCache<i64>> = Arc::new(ShapeCache::new());
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
        let cache: Arc<ShapeCache<u64>> = Arc::new(ShapeCache::new());
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
