//! Host-noise context recorded beside every result, and the process's peak
//! memory. None of this touches the program under test.

use std::time::Instant;

/// A reading of the two fixed probes: a pointer chase through 4 MB, which
/// slows when co-tenants contend for caches and memory, and a dependent
/// integer loop, which slows only when the core itself runs slower.
pub struct Probe {
    pub chase_ns_per_step: f64,
    pub alu_ms: f64,
}

const CHASE_BYTES: usize = 4 << 20;
const CHASE_STEPS: usize = 2_000_000;
const ALU_STEPS: u64 = 20_000_000;

pub fn probe() -> Probe {
    // One random cycle over every slot (Sattolo), so each step misses.
    let n = CHASE_BYTES / std::mem::size_of::<usize>();
    let mut next: Vec<usize> = (0..n).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        x = xorshift(x);
        next.swap(i, (x % i as u64) as usize);
    }
    let t = Instant::now();
    let mut p = 0usize;
    for _ in 0..CHASE_STEPS {
        p = next[p];
    }
    std::hint::black_box(p);
    let chase_ns_per_step = t.elapsed().as_nanos() as f64 / CHASE_STEPS as f64;

    let t = Instant::now();
    let mut y = std::hint::black_box(1u64);
    for _ in 0..ALU_STEPS {
        y = xorshift(y);
    }
    std::hint::black_box(y);
    Probe {
        chase_ns_per_step,
        alu_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// `VmHWM` of this process in MB (10^6 bytes), from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
