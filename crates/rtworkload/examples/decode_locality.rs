//! Decode cost per op, drained two ways: thread after thread (what the
//! benchmark's `rtworkload.decode_drain` probe times) and in engine order —
//! one op per lane per phase, round-robin over a resident set of warps that
//! is backfilled as warps retire, which is how `gpusim` actually pulls ops.
//! The second number is the one the decode path is built for, and the one
//! the frozen benchmark cannot see.
//!
//! ```text
//! cargo run --release -p zatel-rtworkload --example decode_locality [RES]
//! ```

use std::hint::black_box;
use std::time::Instant;

use gpusim::{GpuConfig, Workload};
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use rtworkload::RtWorkload;

/// Drains every thread to its end before starting the next; returns the op
/// count.
fn sequential(workload: &RtWorkload<'_>) -> u64 {
    let mut ops = 0;
    for index in 0..workload.thread_count() {
        let mut thread = workload.create_thread(index);
        while let Some(op) = thread.next_op() {
            black_box(op);
            ops += 1;
        }
    }
    ops
}

/// Gathers one phase from each of `slots` warp slots in turn, relaunching a
/// slot whose warp has retired, until the grid is done; returns the op count.
fn engine_order(workload: &RtWorkload<'_>, slots: u64, warp_size: u64) -> u64 {
    let threads = workload.thread_count();
    let warps = threads.div_ceil(warp_size);
    let lanes_of = |warp: u64| (threads - warp * warp_size).min(warp_size) as u32;
    let mut launched = slots.min(warps);
    let mut resident: Vec<_> = (0..launched)
        .map(|warp| {
            let mut program = workload.warp_program();
            program.launch(warp * warp_size, lanes_of(warp));
            program
        })
        .collect();
    let (mut ops, mut phase) = (0, Vec::new());
    loop {
        let mut live = false;
        for program in &mut resident {
            phase.clear();
            program.gather(&mut phase);
            if phase.is_empty() && launched < warps {
                program.launch(launched * warp_size, lanes_of(launched));
                launched += 1;
                live = true;
            }
            live |= !phase.is_empty();
            ops += black_box(&phase).len() as u64;
        }
        if !live {
            return ops;
        }
    }
}

fn main() {
    let res: u32 = std::env::args()
        .nth(1)
        .map(|arg| arg.parse().expect("RES is a pixel count"))
        .unwrap_or(64);
    let gpu = GpuConfig::mobile_soc();
    let slots = u64::from(gpu.num_sms * gpu.max_warps_per_sm);
    for id in [SceneId::Park, SceneId::Bath] {
        let scene = id.build(1);
        let workload = RtWorkload::full_frame(&scene, res, res, TraceConfig::default());
        let (mut seq_s, mut eng_s, mut ops) = (f64::MAX, f64::MAX, 0);
        for _ in 0..5 {
            let start = Instant::now();
            ops = sequential(&workload);
            seq_s = seq_s.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let engine_ops = engine_order(&workload, slots, u64::from(gpu.warp_size));
            eng_s = eng_s.min(start.elapsed().as_secs_f64());
            assert_eq!(ops, engine_ops, "both orders decode every op");
        }
        let ns_per_op = |seconds: f64| seconds * 1e9 / ops as f64;
        println!(
            "{} {res}x{res}: {ops} ops, sequential {:.1} ns/op, engine order ({slots} warp slots) {:.1} ns/op = {:.2}x",
            id.name(),
            ns_per_op(seq_s),
            ns_per_op(eng_s),
            eng_s / seq_s,
        );
    }
}
