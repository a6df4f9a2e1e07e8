//! The lent BVH build on every benchmark scene: `Bvh::build_lent`, lent a
//! second thread, lays out exactly the tree `Bvh::build` does — the one
//! `tests/scene_golden.rs` pins — at the golden table's seeds, and a scene
//! builds its tree once, whichever path asks first.

use minijson::ToJson;
use rtcore::bvh::Bvh;
use rtcore::scenes::SceneId;

/// A lender that runs the helper on a thread of its own when started.
fn spare(main: &mut dyn FnMut(&dyn Fn()), help: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| main(&|| drop(scope.spawn(help))));
}

#[test]
fn the_lent_build_lays_out_every_scenes_serial_tree() {
    for id in SceneId::ALL {
        for seed in [1, 42, 12345] {
            let scene = id.build(seed);
            let serial = Bvh::build(scene.primitives()).to_json().to_string();
            let lent = scene.bvh_lent(spare).to_json().to_string();
            assert!(lent == serial, "{id} seed {seed}");
        }
    }
}

#[test]
fn concurrent_first_uses_build_one_tree() {
    let scene = SceneId::Park.build(1);
    let trees = std::thread::scope(|scope| {
        let lent = scope.spawn(|| scene.bvh_lent(spare) as *const Bvh as usize);
        let lazy = scope.spawn(|| scene.bvh() as *const Bvh as usize);
        [lent, lazy].map(|t| t.join().expect("no panic"))
    });
    assert_eq!(trees[0], trees[1], "both paths return the one tree");
    assert_eq!(scene.bvh(), &Bvh::build(scene.primitives()));
}
