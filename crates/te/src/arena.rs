//! A buffer arena that recycles intermediate tensor allocations.
//!
//! Every TE evaluation produces an output buffer; on a BERT-sized program
//! that is hundreds of `Vec<f32>` allocations per inference, most of which
//! die as soon as their last consumer has run. The arena keeps those
//! buffers on a free list (keyed by capacity, best-fit) so the wavefront
//! runtime can recycle them across TEs within one evaluation *and* across
//! repeated `eval` calls — the steady-state hot path performs no heap
//! allocation for intermediates.
//!
//! Recycled buffers are handed out **without re-zeroing** the prefix that
//! was already initialized (only growth beyond the previous length is
//! zero-filled). This is safe and deterministic because the compiled
//! evaluator writes every element of a TE's output exactly once before
//! anything reads it; on evaluation errors the runtime discards partial
//! buffers and re-runs serially, so stale data can never leak into
//! results.

/// Allocation statistics for one [`BufferArena`].
///
/// `reused`/`allocated` count requests since the arena was created or
/// since the last [`BufferArena::take_stats`]; `high_water_bytes` is the
/// peak number of bytes parked on the free list over the same window
/// (i.e. memory the arena retained between evaluations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served by recycling a free-listed buffer.
    pub reused: u64,
    /// Requests that had to allocate a fresh buffer.
    pub allocated: u64,
    /// Peak bytes held on the free list.
    pub high_water_bytes: u64,
}

/// Free list of `f32` buffers with best-fit reuse.
///
/// Not internally synchronized; the runtime wraps it in a `Mutex` and only
/// touches it between wavefront levels (never on the per-element hot
/// path).
#[derive(Debug, Default)]
pub struct BufferArena {
    free: Vec<Vec<f32>>,
    stats: ArenaStats,
    /// Bytes currently parked on the free list (capacity, not length).
    parked_bytes: u64,
}

/// Cap on free-listed buffers; beyond this the smallest is dropped so a
/// burst of odd shapes cannot pin unbounded memory.
const MAX_FREE: usize = 64;

impl BufferArena {
    /// Creates an empty arena.
    pub fn new() -> BufferArena {
        BufferArena::default()
    }

    /// Returns a buffer of exactly `len` elements. Prefers the smallest
    /// free buffer whose capacity fits (best fit); allocates fresh
    /// (zeroed) storage only when none fits.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, bc)| cap < bc) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.free.swap_remove(i);
                self.parked_bytes -= cap_bytes(buf.capacity());
                if buf.len() >= len {
                    // Stale prefix is fine: every element is overwritten
                    // before any read (see module docs).
                    buf.truncate(len);
                } else {
                    buf.resize(len, 0.0);
                }
                self.stats.reused += 1;
                buf
            }
            None => {
                self.stats.allocated += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a dead buffer to the free list for later reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.parked_bytes += cap_bytes(buf.capacity());
        self.free.push(buf);
        if self.free.len() > MAX_FREE {
            // Drop the smallest buffer: large ones are the expensive
            // allocations worth keeping.
            if let Some((i, _)) = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                let evicted = self.free.swap_remove(i);
                self.parked_bytes -= cap_bytes(evicted.capacity());
            }
        }
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.parked_bytes);
    }

    /// Number of buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Counters since creation or the last [`BufferArena::take_stats`].
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Drains the counters, returning what was accumulated and starting a
    /// fresh window: `reused`/`allocated` reset to 0 and the high-water
    /// mark restarts from the bytes *currently* parked (retained buffers
    /// still count toward the next window's peak). This is what gives
    /// per-evaluation stats instead of the pre-existing
    /// accumulate-forever behavior.
    pub fn take_stats(&mut self) -> ArenaStats {
        let out = self.stats;
        self.stats = ArenaStats {
            reused: 0,
            allocated: 0,
            high_water_bytes: self.parked_bytes,
        };
        out
    }
}

/// Bytes the allocator actually holds for a buffer of capacity `cap`
/// (capacity, not length — a truncated buffer still pins its full
/// allocation).
fn cap_bytes(cap: usize) -> u64 {
    (cap * std::mem::size_of::<f32>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_take_allocates_zeroed() {
        let mut a = BufferArena::new();
        let b = a.take(8);
        assert_eq!(b, vec![0.0; 8]);
        assert_eq!(
            a.stats(),
            ArenaStats {
                reused: 0,
                allocated: 1,
                high_water_bytes: 0
            }
        );
    }

    #[test]
    fn give_then_take_reuses_without_rezeroing_prefix() {
        let mut a = BufferArena::new();
        let mut b = a.take(8);
        b.iter_mut().for_each(|x| *x = 7.0);
        a.give(b);
        let c = a.take(4);
        assert_eq!(a.stats().reused, 1);
        // The stale prefix survives — callers overwrite before reading.
        assert_eq!(c, vec![7.0; 4]);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn growth_beyond_previous_len_is_zero_filled() {
        let mut a = BufferArena::new();
        let mut b = a.take(4);
        b.iter_mut().for_each(|x| *x = 3.0);
        b.reserve(16); // capacity now fits a larger request
        a.give(b);
        let c = a.take(10);
        assert_eq!(a.stats().reused, 1);
        assert_eq!(&c[..4], &[3.0; 4]);
        assert_eq!(&c[4..], &[0.0; 6]);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut a = BufferArena::new();
        let big = a.take(100);
        let small = a.take(10);
        a.give(big);
        a.give(small);
        let got = a.take(10);
        assert!(
            got.capacity() < 100,
            "best fit should pick the small buffer"
        );
        assert_eq!(a.free_buffers(), 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut a = BufferArena::new();
        for i in 0..(MAX_FREE + 20) {
            a.give(vec![0.0; i + 1]);
        }
        assert!(a.free_buffers() <= MAX_FREE);
    }

    #[test]
    fn high_water_tracks_peak_parked_bytes() {
        let mut a = BufferArena::new();
        let b1 = a.take(8); // 32 bytes
        let b2 = a.take(4); // 16 bytes
        assert_eq!(a.stats().high_water_bytes, 0, "nothing parked yet");
        a.give(b1);
        a.give(b2);
        let peak = a.stats().high_water_bytes;
        assert!(peak >= 48, "both buffers parked: {peak}");
        // Taking one back shrinks parked bytes but never the peak.
        let _b = a.take(8);
        assert_eq!(a.stats().high_water_bytes, peak);
    }

    #[test]
    fn take_stats_resets_window_but_keeps_parked_baseline() {
        let mut a = BufferArena::new();
        let b = a.take(8);
        a.give(b);
        let first = a.take_stats();
        assert_eq!(first.allocated, 1);
        assert!(first.high_water_bytes >= 32);
        // New window: counters zero, high-water restarts at the bytes
        // still parked (the buffer is still retained).
        let now = a.stats();
        assert_eq!(now.reused, 0);
        assert_eq!(now.allocated, 0);
        assert_eq!(now.high_water_bytes, first.high_water_bytes);
        // A reuse in the new window is counted from zero.
        let b = a.take(8);
        assert_eq!(a.stats().reused, 1);
        a.give(b);
        let second = a.take_stats();
        assert_eq!(second.reused, 1);
        assert_eq!(second.allocated, 0);
    }
}
