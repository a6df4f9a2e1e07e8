//! Decode cost per op, drained two ways: thread after thread (what the
//! benchmark's `rtworkload.decode_drain` probe times) and in engine order —
//! one op per lane per phase, round-robin over a resident set of warps that
//! is backfilled as warps retire, each phase categorized as it is gathered,
//! which is how `gpusim` actually pulls ops. The second number is the one
//! the decode path is built for, and the one the frozen benchmark cannot
//! see. Then the whole engine: the best of five `Simulator::run`s on the
//! Mobile SoC and an FNV-1a digest of its `SimStats` JSON. Last, the other
//! sink of the same path machine: the best of five `profile_costs` of the
//! frame and the Σ of its cost map. Before all of it, the scene itself: the
//! best of five `SceneId::build`s and of five `Bvh::build`s over its
//! primitives, and an FNV-1a digest of the BVH's JSON. Two builds can so be
//! compared for speed and for identity, on every side, in seconds.
//!
//! ```text
//! cargo run --release -p zatel-rtworkload --example decode_locality [RES]
//! ```

use std::hint::black_box;
use std::time::Instant;

use gpusim::{GpuConfig, PhaseMix, Simulator, Workload};
use minijson::ToJson;
use rtcore::bvh::Bvh;
use rtcore::fingerprint::Fnv64;
use rtcore::scenes::SceneId;
use rtcore::tracer::{profile_costs, TraceConfig};
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
fn engine_order(workload: &RtWorkload<'_>, slots: u64, gpu: &GpuConfig) -> u64 {
    let warp_size = u64::from(gpu.warp_size);
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
    let (mut ops, mut phase) = (0, PhaseMix::new(gpu.l1d.line_bytes));
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
    let sim = Simulator::new(gpu.clone());
    for id in [SceneId::Park, SceneId::Bath] {
        let (mut scene_s, mut bvh_s) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            let start = Instant::now();
            black_box(id.build(1));
            scene_s = scene_s.min(start.elapsed().as_secs_f64());
        }
        let scene = id.build(1);
        let mut bvh_digest = None;
        for _ in 0..5 {
            let start = Instant::now();
            let bvh = Bvh::build(scene.primitives());
            bvh_s = bvh_s.min(start.elapsed().as_secs_f64());
            let mut h = Fnv64::new();
            h.write_bytes(bvh.to_json().to_string().as_bytes());
            assert!(
                bvh_digest.is_none_or(|d| d == h.finish()),
                "every build lays out the same tree"
            );
            bvh_digest = Some(h.finish());
        }
        println!(
            "{}: SceneId::build {:.1} ms, Bvh::build {:.1} ms, BVH JSON digest {:#018x}",
            id.name(),
            scene_s * 1e3,
            bvh_s * 1e3,
            bvh_digest.unwrap_or_default(),
        );
        let trace = TraceConfig::default();
        let workload = RtWorkload::full_frame(&scene, res, res, trace);
        let (mut seq_s, mut eng_s, mut sim_s, mut ops) = (f64::MAX, f64::MAX, f64::MAX, 0);
        let (mut profile_s, mut work) = (f64::MAX, 0);
        let mut digest = None;
        for _ in 0..5 {
            let start = Instant::now();
            ops = sequential(&workload);
            seq_s = seq_s.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let engine_ops = engine_order(&workload, slots, &gpu);
            eng_s = eng_s.min(start.elapsed().as_secs_f64());
            assert_eq!(ops, engine_ops, "both orders decode every op");
            let start = Instant::now();
            let stats = sim.run(&workload);
            sim_s = sim_s.min(start.elapsed().as_secs_f64());
            let mut h = Fnv64::new();
            h.write_bytes(stats.to_json().to_string().as_bytes());
            assert!(
                digest.is_none_or(|d| d == h.finish()),
                "every run simulates the same"
            );
            digest = Some(h.finish());
            let start = Instant::now();
            let costs = profile_costs(&scene, res, res, &trace);
            profile_s = profile_s.min(start.elapsed().as_secs_f64());
            work = costs.values().iter().sum::<u64>();
        }
        let ns_per_op = |seconds: f64| seconds * 1e9 / ops as f64;
        println!(
            "{} {res}x{res}: {ops} ops, sequential {:.1} ns/op, engine order ({slots} warp slots) {:.1} ns/op = {:.2}x",
            id.name(),
            ns_per_op(seq_s),
            ns_per_op(eng_s),
            eng_s / seq_s,
        );
        println!(
            "{} {res}x{res}: Simulator::run {:.1} ms, SimStats digest {:#018x}",
            id.name(),
            sim_s * 1e3,
            digest.unwrap_or_default(),
        );
        println!(
            "{} {res}x{res}: profile_costs {:.1} ms, {work} work units",
            id.name(),
            profile_s * 1e3,
        );
    }
}
