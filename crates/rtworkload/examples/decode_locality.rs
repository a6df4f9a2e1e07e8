//! Decode cost per op, drained two ways: thread after thread (what the
//! benchmark's `rtworkload.decode_drain` probe times) and in engine order —
//! one op per lane per phase, round-robin over a resident set of warps that
//! is backfilled as warps retire, each phase categorized as it is gathered,
//! which is how `gpusim` actually pulls ops. The second number is the one
//! the decode path is built for, and the one the frozen benchmark cannot
//! see. Then the whole engine: the best of five `Simulator::run`s and an
//! FNV-1a digest of its `SimStats` JSON, next to the best
//! of five `Simulator::run_helped`s lent a helper thread when the commit
//! loop asks for one, as a `--jobs` worker is; each helped run, and one
//! whose helper runs from the first cycle, must give the same digest, and
//! must have asked for its helper: a run that never shares its warp slots
//! is an unhelped run, and its digest would check nothing. Last, the other
//! sink of the same path machine: the best of five `profile_costs` of the
//! frame and the Σ of its cost map, next to the best of five
//! `profile_costs_lent`s lent a second thread, whose map must be the same.
//! Before all of it, the scene itself: the best of five `SceneId::build`s
//! (its geometry), of five `Bvh::build`s over its primitives (one thread)
//! and of five `Bvh::build_lent`s lent a second thread, as a `--jobs` list
//! lends its spare worker, and an FNV-1a digest of the BVH's JSON, which
//! every build, on one thread or two, must match. Two builds can so be
//! compared for speed and for identity, on every side, in seconds. All of
//! it runs on the Mobile SoC and again on the RTX 2060 preset, whose 30 SMs
//! of 32 warp slots each are where slot bookkeeping costs most.
//!
//! ```text
//! cargo run --release -p zatel-rtworkload --example decode_locality [RES]
//! ```

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use gpusim::{GpuConfig, NullHooks, PhaseMix, SimStats, Simulator, Workload};
use minijson::ToJson;
use rtcore::bvh::Bvh;
use rtcore::fingerprint::Fnv64;
use rtcore::scenes::SceneId;
use rtcore::tracer::{profile_costs, profile_costs_lent, TraceConfig};
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

/// FNV-1a of the statistics' JSON.
fn digest(stats: &SimStats) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(stats.to_json().to_string().as_bytes());
    h.finish()
}

/// A lender that runs the helper on a thread of its own when started, as a
/// spare `--jobs` worker does.
fn spare(main: &mut dyn FnMut(&dyn Fn()), help: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| main(&|| drop(scope.spawn(help))));
}

/// A run lent a helper thread: when the commit loop asks for it, as a spare
/// `--jobs` worker is lent, or from the first cycle. Also returns whether
/// the commit loop asked for it.
fn helped(sim: &Simulator, workload: &RtWorkload<'_>, eager: bool) -> (SimStats, bool) {
    let started = Cell::new(false);
    let stats = sim.run_helped(workload, &mut NullHooks, |commit, help| {
        std::thread::scope(|scope| {
            if eager {
                scope.spawn(help);
            }
            commit(&|| {
                started.set(true);
                if !eager {
                    scope.spawn(help);
                }
            });
        });
    });
    (stats, started.get())
}

fn main() {
    let res: u32 = std::env::args()
        .nth(1)
        .map(|arg| arg.parse().expect("RES is a pixel count"))
        .unwrap_or(64);
    let presets = [
        ("Mobile SoC", GpuConfig::mobile_soc()),
        ("RTX 2060", GpuConfig::rtx_2060()),
    ];
    for (preset, gpu) in presets {
        let slots = u64::from(gpu.num_sms * gpu.max_warps_per_sm);
        let sim = Simulator::new(gpu.clone());
        for id in [SceneId::Park, SceneId::Bath] {
            let (mut scene_s, mut bvh_s, mut lent_s) = (f64::MAX, f64::MAX, f64::MAX);
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
            for _ in 0..5 {
                let start = Instant::now();
                let bvh = Bvh::build_lent(scene.primitives(), spare);
                lent_s = lent_s.min(start.elapsed().as_secs_f64());
                let mut h = Fnv64::new();
                h.write_bytes(bvh.to_json().to_string().as_bytes());
                assert_eq!(
                    bvh_digest,
                    Some(h.finish()),
                    "the lent build lays out the one-thread tree"
                );
            }
            println!(
                "{} on {preset}: SceneId::build {:.1} ms, Bvh::build {:.1} ms, lent {:.1} ms = {:.2}x, BVH JSON digest {:#018x}",
                id.name(),
                scene_s * 1e3,
                bvh_s * 1e3,
                lent_s * 1e3,
                lent_s / bvh_s,
                bvh_digest.unwrap_or_default(),
            );
            let trace = TraceConfig::default();
            let workload = RtWorkload::full_frame(&scene, res, res, trace);
            let (mut seq_s, mut eng_s, mut sim_s, mut ops) = (f64::MAX, f64::MAX, f64::MAX, 0);
            let (mut helped_s, mut starts) = (f64::MAX, 0);
            let (mut profile_s, mut profile_lent_s, mut work) = (f64::MAX, f64::MAX, 0);
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
                let run = Some(self::digest(&stats));
                assert!(
                    digest.is_none() || digest == run,
                    "every run simulates the same"
                );
                digest = run;
                let start = Instant::now();
                let run = helped(&sim, &workload, false);
                helped_s = helped_s.min(start.elapsed().as_secs_f64());
                for (stats, started) in [run, helped(&sim, &workload, true)] {
                    assert_eq!(
                        digest,
                        Some(self::digest(&stats)),
                        "a helped run simulates the same"
                    );
                    starts += usize::from(started);
                }
                let start = Instant::now();
                let costs = profile_costs(&scene, res, res, &trace);
                profile_s = profile_s.min(start.elapsed().as_secs_f64());
                work = costs.values().iter().sum::<u64>();
                let start = Instant::now();
                let lent = profile_costs_lent(&scene, res, res, &trace, spare);
                profile_lent_s = profile_lent_s.min(start.elapsed().as_secs_f64());
                assert!(lent == costs, "the lent profile is the one-thread map");
            }
            let ns_per_op = |seconds: f64| seconds * 1e9 / ops as f64;
            println!(
                "{} {res}x{res} on {preset}: {ops} ops, sequential {:.1} ns/op, engine order ({slots} warp slots) {:.1} ns/op = {:.2}x",
                id.name(),
                ns_per_op(seq_s),
                ns_per_op(eng_s),
                eng_s / seq_s,
            );
            println!(
                "{} {res}x{res} on {preset}: Simulator::run {:.1} ms, helped {:.1} ms = {:.2}x, helper started in {starts} of 10 helped runs, SimStats digest {:#018x}",
                id.name(),
                sim_s * 1e3,
                helped_s * 1e3,
                helped_s / sim_s,
                digest.unwrap_or_default(),
            );
            assert_eq!(starts, 10, "every helped run shares its warp slots");
            println!(
                "{} {res}x{res} on {preset}: profile_costs {:.1} ms, lent {:.1} ms = {:.2}x, {work} work units",
                id.name(),
                profile_s * 1e3,
                profile_lent_s * 1e3,
                profile_lent_s / profile_s,
            );
        }
    }
}
