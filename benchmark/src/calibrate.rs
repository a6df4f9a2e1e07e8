//! A fixed kernel the host's speed is read from.
//!
//! The 2-core host is a shared VM whose speed moves in spells: the same
//! `predict-light` pass took 0.46 s at one time and 0.61 s twenty minutes
//! later, ten runs each. No summary of raw wall-clock times survives that,
//! so the in-process workloads time this kernel right before and right
//! after every operation and report the operation's wall scaled to the
//! speed the kernel ran at ([`Calibrated`]). The kernel is the benchmark's
//! own code: nothing in the repository can make it faster or slower, so a
//! change in a calibrated time is a change in the repository's code. Raw
//! walls stay in every result file (`samples.raw_wall_s`, `kernel_s`).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the pointer-chase ring: 4 MiB of `u32`, past the L2.
const RING: usize = 1 << 20;

/// One cycle through all of `0..RING`, in a fixed pseudo-random order.
fn ring() -> &'static [u32] {
    static RING_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    RING_CELL.get_or_init(|| {
        let mut order: Vec<u32> = (0..RING as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..RING).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut next = vec![0u32; RING];
        for pair in order.windows(2) {
            next[pair[0] as usize] = pair[1];
        }
        next[order[RING - 1] as usize] = order[0];
        next
    })
}

/// What the kernel takes on the 2-core host in a calm spell (the fastest
/// of 650 readings). Only a scale: it makes a calibrated second equal a
/// wall-clock second when the host is at its best.
pub const REFERENCE_S: f64 = 0.0186;

/// A reading of the host's speed: seconds the kernel takes now, the faster
/// of two back-to-back runs (the first finds its 4 MiB ring evicted by
/// whatever ran before).
pub fn kernel_s() -> f64 {
    kernel_once().min(kernel_once())
}

/// `raw_s` seconds of wall, measured between the kernel readings `before`
/// and `after`, scaled to the reference speed.
pub fn calibrated(raw_s: f64, before: f64, after: f64) -> f64 {
    raw_s * REFERENCE_S / ((before + after) / 2.0)
}

/// One run of the kernel: a dependent pointer chase, a binary heap churn
/// and a float recurrence — the simulator's own diet.
fn kernel_once() -> f64 {
    let next = ring();
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..300_000 {
        at = next[at as usize];
    }
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut key = u64::from(at) | 1;
    for i in 0..150_000u64 {
        key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        heap.push(key >> 20);
        if heap.len() > 512 {
            black_box(heap.pop());
        }
    }
    let mut x = 1.000_1f32;
    for _ in 0..1_000_000 {
        x = (x * 1.000_001 + 0.000_1).min(4.0);
    }
    black_box((at, heap.len(), x));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle_through_every_entry() {
        let next = ring();
        let mut seen = vec![false; RING];
        let mut at = 0usize;
        for _ in 0..RING {
            assert!(!seen[at]);
            seen[at] = true;
            at = next[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn calibration_scales_by_the_kernel_reading() {
        assert_eq!(calibrated(2.0, REFERENCE_S, REFERENCE_S), 2.0);
        // A host at half speed doubles both the wall and the kernel.
        assert_eq!(calibrated(4.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 2.0);
        assert!(kernel_s() > 0.0);
    }
}
