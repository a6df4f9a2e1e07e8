//! A simulation helped by a spare `--jobs` worker that decodes ahead of its
//! commit loop (`Simulator::run_helped`) must be indistinguishable from an
//! unhelped one, and must end cleanly:
//!
//! * the `SimStats` of every scene × preset match unhelped runs, through
//!   `Zatel::run_reference` at `jobs` 1 and 2 and with a helper thread that
//!   starts before the commit loop and waits for it to share its warps; so
//!   do a one-group `--no-downscale` prediction's;
//! * on one SM with two warp slots and more warps than slots — so warps
//!   retire, backfill and vacate their slots while the helper runs — every
//!   hook call comes in the same order with the same arguments: also when
//!   most warps are adopted by the helper at launch, and when phases are
//!   too large for a ring's words and take the spill path;
//! * a thread program's panic on either thread reaches the caller, and the
//!   helper returns once the commit loop has.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gpusim::workload::{Op, PhaseMix, ScriptedWorkload, ThreadProgram, Workload};
use gpusim::PhaseClass;
use zatel_suite::prelude::*;

fn trace() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 7,
    }
}

/// Starts the helper before the commit loop rather than when the commit
/// loop asks for it: it idles until the commit loop shares its warps.
fn eager<H: SimHooks>(sim: &Simulator, workload: &dyn Workload, hooks: &mut H) -> SimStats {
    sim.run_helped(workload, hooks, |commit, help| {
        std::thread::scope(|scope| {
            scope.spawn(help);
            commit(&|| ());
        });
    })
}

/// Starts the helper when the commit loop asks for it, as a spare `--jobs`
/// worker is lent; also returns whether it asked.
fn lent<H: SimHooks>(sim: &Simulator, workload: &dyn Workload, hooks: &mut H) -> (SimStats, bool) {
    let asked = AtomicBool::new(false);
    let stats = sim.run_helped(workload, hooks, |commit, help| {
        std::thread::scope(|scope| {
            commit(&|| {
                asked.store(true, Ordering::Relaxed);
                scope.spawn(help);
            });
        });
    });
    (stats, asked.into_inner())
}

#[test]
fn helped_references_match_unhelped_ones_on_every_scene() {
    for config in [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()] {
        for id in rtcore::scenes::all() {
            let scene = id.build(3);
            let reference = |jobs| {
                let mut z = Zatel::new(&scene, config.clone(), 32, 32, trace());
                z.options_mut().jobs = Some(jobs);
                z.run_reference().stats
            };
            let alone = reference(1);
            let label = format!("{} on {} SMs", id.name(), config.num_sms);
            assert_eq!(reference(2), alone, "{label}: a lone reference at --jobs 2");
            let workload = RtWorkload::full_frame(&scene, 32, 32, trace());
            let sim = Simulator::new(config.clone());
            assert_eq!(
                eager(&sim, &workload, &mut NullHooks),
                alone,
                "{label}: eager helper"
            );
        }
    }
}

#[test]
fn a_one_group_prediction_is_helped_and_unchanged() {
    let scene = SceneId::Park.build(5);
    let predict = |jobs| {
        let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        z.options_mut().jobs = Some(jobs);
        z.run().expect("a one-group prediction runs")
    };
    let (alone, helped) = (predict(1), predict(2));
    assert_eq!(helped.groups.len(), 1, "--no-downscale is one group");
    assert_eq!(helped.groups[0].stats, alone.groups[0].stats);
    for m in Metric::ALL {
        assert_eq!(helped.value(m).to_bits(), alone.value(m).to_bits(), "{m:?}");
    }
}

/// One hook call, as the engine made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Launch(usize, u64, u64),
    Retire(usize, u64, u64),
    Issue(usize, u64, PhaseClass, u64, u64),
    Dram(usize, u32, u64),
    Read(usize, u64),
    Rt(usize, u32, u32, u64, u64),
}

/// Records every hook call in order.
#[derive(Default)]
struct TraceHooks(Vec<Call>);

impl SimHooks for TraceHooks {
    fn on_warp_launch(&mut self, sm: usize, warp: u64, time: u64) {
        self.0.push(Call::Launch(sm, warp, time));
    }
    fn on_warp_retire(&mut self, sm: usize, warp: u64, time: u64) {
        self.0.push(Call::Retire(sm, warp, time));
    }
    fn on_phase_issue(&mut self, sm: usize, warp: u64, class: PhaseClass, start: u64, ready: u64) {
        self.0.push(Call::Issue(sm, warp, class, start, ready));
        // Slows the commit loop below the helper, so that the helper
        // gathers warps to their end before they retire and backfill.
        for i in 0..8000u32 {
            std::hint::black_box(i);
        }
    }
    fn on_dram_transfer(&mut self, channel: usize, bytes: u32, time: u64) {
        self.0.push(Call::Dram(channel, bytes, time));
    }
    fn on_mem_read(&mut self, sm: usize, latency: u64) {
        self.0.push(Call::Read(sm, latency));
    }
    fn on_rt_phase(&mut self, sm: usize, rays: u32, lines: u32, start: u64, occupancy: u64) {
        self.0.push(Call::Rt(sm, rays, lines, start, occupancy));
    }
}

/// One SM with two warp slots.
fn one_sm() -> GpuConfig {
    let mut config = GpuConfig::mobile_soc();
    config.num_sms = 1;
    config.max_warps_per_sm = 2;
    config
}

#[test]
fn backfills_and_vacated_slots_leave_every_hook_call_unchanged() {
    // Nine warps of uneven length through two slots, about 19 000 phases:
    // the commit loop asks for its helper about five warps in, so the
    // last warps launch, retire and vacate their slots while it runs.
    let workload = ScriptedWorkload::per_thread(9 * 32 - 7, |i| {
        (0..900 + (i * 7) % 61 + 300 * (i / 32))
            .map(|k| match k % 4 {
                0 => Op::RtNode {
                    addr: ((i + k) % 97) * 32,
                },
                1 => Op::Load {
                    addr: (i % 13) * 64 + k * 4096,
                    bytes: 16,
                },
                2 => Op::Compute {
                    cycles: (k % 9) as u32 + 1,
                    insts: 2,
                },
                _ => Op::Store {
                    addr: i * 16,
                    bytes: 16,
                },
            })
            .collect()
    });
    let sim = Simulator::new(one_sm());
    let mut alone = TraceHooks::default();
    let stats = sim.run_with_hooks(&workload, &mut alone);
    assert_eq!(
        alone
            .0
            .iter()
            .filter(|c| matches!(c, Call::Launch(..)))
            .count(),
        9
    );
    for _ in 0..4 {
        let mut helped = TraceHooks::default();
        let (helped_stats, asked) = lent(&sim, &workload, &mut helped);
        assert!(asked, "the run is long enough to ask for its helper");
        assert_eq!(helped_stats, stats);
        assert!(helped.0 == alone.0, "the helped run's hook calls differ");
    }
}

/// The hook calls and statistics of `workload` on one SM with two slots,
/// unhelped, must be those of every helped run: lent a helper when the
/// commit loop asks, and with one that idles from the start.
fn helped_runs_match(workload: &ScriptedWorkload, label: &str) {
    let sim = Simulator::new(one_sm());
    let mut alone = TraceHooks::default();
    let stats = sim.run_with_hooks(workload, &mut alone);
    for _ in 0..2 {
        let mut helped = TraceHooks::default();
        let (helped_stats, asked) = lent(&sim, workload, &mut helped);
        assert!(
            asked,
            "{label}: the run is long enough to ask for its helper"
        );
        assert_eq!(helped_stats, stats, "{label}");
        assert!(
            helped.0 == alone.0,
            "{label}: the helped run's hook calls differ"
        );
        let mut helped = TraceHooks::default();
        assert_eq!(eager(&sim, workload, &mut helped), stats, "{label}: eager");
        assert!(
            helped.0 == alone.0,
            "{label}: the eager run's hook calls differ"
        );
    }
}

#[test]
fn warps_the_helper_adopts_at_launch_leave_every_hook_call_unchanged() {
    // Forty short warps through two slots: the commit loop shares its
    // slots after its first few dozen phases, so most warps launch — and
    // are adopted before their first phase — backfill and retire while
    // the helper runs, and the last two vacate their slots.
    let workload = ScriptedWorkload::per_thread(40 * 32 - 3, |i| {
        (0..40 + (i * 11) % 37 + 5 * (i / 32 % 3))
            .map(|k| match k % 3 {
                0 => Op::RtNode {
                    addr: ((i + k) % 89) * 32,
                },
                1 => Op::Load {
                    addr: (i % 7) * 128 + k * 256,
                    bytes: 8,
                },
                _ => Op::Compute {
                    cycles: (k % 5) as u32 + 1,
                    insts: 1,
                },
            })
            .collect()
    });
    helped_runs_match(&workload, "forty warps");
}

#[test]
fn phases_larger_than_a_ring_leave_every_hook_call_unchanged() {
    // Every fifth op loads up to 2 KiB, 16 lines a lane, so a phase of it
    // holds hundreds of lines: more words than a ring holds. Every
    // seventh fetches a node past 2^40 bytes, a line wider than a word.
    let workload = ScriptedWorkload::per_thread(6 * 32 - 9, |i| {
        (0..300 + (i * 7) % 53)
            .map(|k| match k % 35 {
                k5 if k5 % 5 == 0 => Op::Load {
                    addr: (i * 31 + k) * 4096,
                    bytes: 256 * (k % 9) as u32 + 1,
                },
                k7 if k7 % 7 == 0 => Op::RtNode {
                    addr: (1 << 40) + i * 32,
                },
                _ => Op::Compute {
                    cycles: (k % 4) as u32 + 1,
                    insts: 2,
                },
            })
            .collect()
    });
    helped_runs_match(&workload, "wide phases");
}

/// Each thread runs `ops` one-cycle compute ops, and panics before op `op`
/// where `panics(thread, op, gathered on the caller's thread)` says so.
struct Panicking {
    threads: u64,
    ops: u32,
    panics: fn(u64, u32, bool) -> bool,
    caller: std::thread::ThreadId,
}

struct Countdown<'w> {
    workload: &'w Panicking,
    index: u64,
    done: u32,
}

impl ThreadProgram for Countdown<'_> {
    fn next_op(&mut self) -> Option<Op> {
        let w = self.workload;
        if self.done == w.ops {
            return None;
        }
        let on_caller = std::thread::current().id() == w.caller;
        if (w.panics)(self.index, self.done, on_caller) {
            panic!("thread program {} failed", self.index);
        }
        self.done += 1;
        Some(Op::Compute {
            cycles: 1,
            insts: 1,
        })
    }
}

impl Workload for Panicking {
    fn thread_count(&self) -> u64 {
        self.threads
    }

    fn create_thread(&self, index: u64) -> Box<dyn ThreadProgram + '_> {
        Box::new(Countdown {
            workload: self,
            index,
            done: 0,
        })
    }
}

/// Runs a workload long enough to start its helper, helped by the `--jobs`
/// pool's spare worker; returns the panic message raised on the caller.
fn helped_panic(panics: fn(u64, u32, bool) -> bool) -> String {
    let workload = Panicking {
        threads: 4 * 32,
        ops: 20_000,
        panics,
        caller: std::thread::current().id(),
    };
    let sim = Simulator::new(one_sm());
    let executor = SimExecutor::new(2);
    let start = Instant::now();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        executor.run_one(|worker| {
            assert!(worker.has_spare());
            sim.run_helped(&workload, &mut NullHooks, |commit, help| {
                worker.join(commit, help)
            })
        })
    }))
    .expect_err("the program's panic reaches the caller");
    assert!(start.elapsed() < Duration::from_secs(120));
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

#[test]
fn a_panicking_thread_program_reaches_the_caller_from_either_thread() {
    // Mid-run, on whichever thread gathers the op.
    assert_eq!(
        helped_panic(|thread, op, _| thread == 70 && op == 15_000),
        "thread program 70 failed"
    );
    // On the helper, at the first op it gathers: the commit loop then meets
    // the poisoned slot, and the helper's own panic is the one raised.
    let message = helped_panic(|_, _, on_caller| !on_caller);
    assert!(message.starts_with("thread program "), "{message}");
}

#[test]
fn the_helper_returns_when_the_run_ends() {
    let workload = ScriptedWorkload::uniform(
        64 * 32,
        vec![
            Op::Compute {
                cycles: 3,
                insts: 1
            };
            200
        ],
    );
    let sim = Simulator::new(one_sm());
    let alone = sim.run(&workload);
    let (asked, returned) = (AtomicBool::new(false), AtomicBool::new(false));
    let stats = sim.run_helped(&workload, &mut NullHooks, |commit, help| {
        std::thread::scope(|scope| {
            commit(&|| {
                asked.store(true, Ordering::Relaxed);
                scope.spawn(|| {
                    help();
                    returned.store(true, Ordering::Release);
                });
            });
            // The commit loop is done: the helper stops on its own.
            let start = Instant::now();
            while !returned.load(Ordering::Acquire) {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "the helper still runs after the commit loop returned"
                );
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(stats, alone);
    assert!(
        asked.load(Ordering::Relaxed),
        "a long run asks for its helper"
    );
}

#[test]
fn a_short_run_never_asks_for_a_helper() {
    let workload = ScriptedWorkload::uniform(32, vec![Op::Load { addr: 0, bytes: 4 }; 8]);
    let sim = Simulator::new(GpuConfig::mobile_soc());
    let asked = AtomicBool::new(false);
    let stats = sim.run_helped(&workload, &mut NullHooks, |commit, _| {
        commit(&|| asked.store(true, Ordering::Relaxed));
    });
    assert_eq!(stats, sim.run(&workload));
    assert!(!asked.load(Ordering::Relaxed));
}

/// The phase a warp program adds is what `PhaseMix` counts, whichever
/// thread gathers it: a program moved to another thread gathers on.
#[test]
fn warp_programs_move_between_threads() {
    let workload = ScriptedWorkload::uniform(
        32,
        vec![
            Op::Compute {
                cycles: 2,
                insts: 1
            };
            3
        ],
    );
    let mut program = workload.warp_program();
    program.launch(0, 32);
    let mut phase = PhaseMix::new(128);
    program.gather(&mut phase);
    let mut program = std::thread::scope(|scope| {
        scope
            .spawn(move || {
                let mut phase = PhaseMix::new(128);
                program.gather(&mut phase);
                assert_eq!(phase.len(), 32);
                program
            })
            .join()
            .expect("the program gathers on another thread")
    });
    phase.clear();
    program.gather(&mut phase);
    assert_eq!(phase.len(), 32, "and back on this one");
    phase.clear();
    program.gather(&mut phase);
    assert!(phase.is_empty());
}
