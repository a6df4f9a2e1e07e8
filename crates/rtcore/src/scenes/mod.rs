//! Procedural stand-ins for the LumiBench scene subset used in the paper
//! (Fig. 9: PARK, SHIP, WKND, BUNNY, SPRNG, CHSNT, SPNZA, BATH).
//!
//! Each scene reproduces the *workload characteristics* the evaluation
//! relies on rather than the original artwork:
//!
//! | Scene | Characteristic exploited by the paper |
//! |-------|----------------------------------------|
//! | PARK  | Heaviest path-tracing load; saturates the GPU like a 1080p real-world frame |
//! | SHIP  | Coldest heatmap: most pixels are cheap sky/water |
//! | WKND  | Mix of warm and cold regions |
//! | BUNNY | Uniformly warm heatmap; single dense object fills the frame |
//! | SPRNG | Two objects only; rays terminate early, GPU underutilized |
//! | CHSNT | Mid-complexity organic clutter |
//! | SPNZA | Enclosed architecture, high depth complexity |
//! | BATH  | Longest-running scene: enclosed, reflective, refractive |

use crate::camera::Camera;
use crate::geom::mesh;
use crate::material::Material;
use crate::math::{Pcg, Vec3};
use crate::scene::{Scene, SceneBuilder};

/// Identifier for one of the eight benchmark scenes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneId {
    /// Heaviest path-tracing workload (paper's fully-optimized evaluation scene).
    Park,
    /// Coldest heatmap.
    Ship,
    /// Warm/cold mix.
    Wknd,
    /// Uniformly warm heatmap.
    Bunny,
    /// Two objects; rays terminate early.
    Sprng,
    /// Organic clutter.
    Chsnt,
    /// Enclosed architecture.
    Spnza,
    /// Longest-running, reflective/refractive interior.
    Bath,
}

impl SceneId {
    /// All eight scenes, in the paper's Fig. 9 order.
    pub const ALL: [SceneId; 8] = [
        SceneId::Park,
        SceneId::Ship,
        SceneId::Wknd,
        SceneId::Bunny,
        SceneId::Sprng,
        SceneId::Chsnt,
        SceneId::Spnza,
        SceneId::Bath,
    ];

    /// The representative subset outlined by LumiBench, used for Fig. 17
    /// (scenes that adequately stress a downscaled GPU).
    pub const REPRESENTATIVE: [SceneId; 4] =
        [SceneId::Park, SceneId::Bunny, SceneId::Spnza, SceneId::Bath];

    /// Canonical upper-case name, as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Park => "PARK",
            SceneId::Ship => "SHIP",
            SceneId::Wknd => "WKND",
            SceneId::Bunny => "BUNNY",
            SceneId::Sprng => "SPRNG",
            SceneId::Chsnt => "CHSNT",
            SceneId::Spnza => "SPNZA",
            SceneId::Bath => "BATH",
        }
    }

    /// One-line workload characterization, as listed in the paper's Fig. 9
    /// discussion. The single source for scene descriptions across the
    /// CLI, benches and examples.
    pub fn description(self) -> &'static str {
        match self {
            SceneId::Park => "heaviest load, saturates the GPU",
            SceneId::Ship => "coldest heatmap (sky/water)",
            SceneId::Wknd => "warm/cold mix",
            SceneId::Bunny => "uniformly warm heatmap",
            SceneId::Sprng => "two objects, underutilized GPU",
            SceneId::Chsnt => "mid-complexity organic clutter",
            SceneId::Spnza => "enclosed architecture, deep occlusion",
            SceneId::Bath => "longest-running, reflective interior",
        }
    }

    /// Builds the scene's geometry deterministically from `seed`; its BVH
    /// is built on first use ([`Scene::bvh`]).
    pub fn build(self, seed: u64) -> Scene {
        match self {
            SceneId::Park => park(seed),
            SceneId::Ship => ship(seed),
            SceneId::Wknd => wknd(seed),
            SceneId::Bunny => bunny(seed),
            SceneId::Sprng => sprng(seed),
            SceneId::Chsnt => chsnt(seed),
            SceneId::Spnza => spnza(seed),
            SceneId::Bath => bath(seed),
        }
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The scene registry: every benchmark scene, in the paper's Fig. 9 order.
///
/// Module-level alias for [`SceneId::ALL`] so callers can iterate scenes
/// without naming the enum (`for id in scenes::all() { ... }`).
pub fn all() -> [SceneId; 8] {
    SceneId::ALL
}

/// Looks up a scene by name, case-insensitively.
///
/// The registry entry point that the CLI, benches and examples share
/// instead of hand-rolled name match arms.
pub fn by_name(name: &str) -> Option<SceneId> {
    SceneId::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
}

/// PARK: bumpy terrain, dense tetrahedral "foliage" clutter, sphere-flake
/// trees and a reflective pond. Every region of the frame does significant
/// work, so the GPU saturates like a real-world 1080p frame.
fn park(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0x9A17);
    let cam = Camera::look_at(
        Vec3::new(0.0, 5.0, -16.0),
        Vec3::new(0.0, 1.2, 0.0),
        Vec3::Y,
        62.0,
    );
    let mut b = SceneBuilder::new("PARK", cam);
    let grass = b.add_material(Material::diffuse(Vec3::new(0.25, 0.5, 0.2)));
    let bark = b.add_material(Material::diffuse(Vec3::new(0.4, 0.3, 0.2)));
    let leaf = b.add_material(Material::diffuse(Vec3::new(0.2, 0.6, 0.25)));
    let water = b.add_material(Material::mirror(Vec3::new(0.7, 0.8, 0.9), 0.05));
    let stone = b.add_material(Material::diffuse(Vec3::splat(0.55)));

    b.add_mesh(mesh::heightfield(
        Vec3::ZERO,
        60.0,
        60.0,
        48,
        48,
        0.6,
        grass,
        &mut rng,
    ));
    // Pond.
    b.add_mesh(mesh::heightfield(
        Vec3::new(6.0, 0.7, 4.0),
        10.0,
        8.0,
        2,
        2,
        0.0,
        water,
        &mut rng,
    ));
    // Trees: sphere-flake canopies on cuboid trunks.
    for i in 0..8 {
        let x = -21.0 + 5.5 * i as f32 + rng.range_f32(-1.0, 1.0);
        let z = rng.range_f32(-6.0, 14.0);
        b.add_mesh(mesh::cuboid(
            Vec3::new(x - 0.3, 0.0, z - 0.3),
            Vec3::new(x + 0.3, 3.0, z + 0.3),
            bark,
        ));
        let mut canopy = Vec::new();
        mesh::sphere_flake(
            Vec3::new(x, 4.2, z),
            1.3,
            3,
            5,
            4,
            leaf,
            &mut rng,
            &mut canopy,
        );
        b.add_mesh(canopy);
    }
    // Foliage clutter everywhere in view.
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-22.0, 0.2, -10.0),
        Vec3::new(22.0, 1.4, 18.0),
        8000,
        (0.15, 0.5),
        leaf,
        &mut rng,
    ));
    // Distant tree line closing off the skyline (cheap hedge wall plus
    // canopy blobs), so no frame region idles on sky.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-34.0, 0.0, 22.0),
        Vec3::new(34.0, 16.0, 24.0),
        leaf,
    ));
    for i in 0..10 {
        let x = -27.0 + 6.0 * i as f32;
        let mut blob = Vec::new();
        mesh::sphere_flake(
            Vec3::new(x, 17.0, 23.0),
            2.2,
            1,
            4,
            3,
            leaf,
            &mut rng,
            &mut blob,
        );
        b.add_mesh(blob);
    }
    // Benches.
    for i in 0..3 {
        let z = -4.0 + 5.0 * i as f32;
        b.add_mesh(mesh::cuboid(
            Vec3::new(-8.0, 0.7, z),
            Vec3::new(-5.5, 1.1, z + 0.8),
            stone,
        ));
    }
    b.add_light(Vec3::new(18.0, 28.0, -18.0), Vec3::splat(2200.0));
    b.add_light(Vec3::new(-12.0, 10.0, 8.0), Vec3::new(500.0, 450.0, 380.0));
    b.build()
}

/// SHIP: a small vessel on open water under a big sky; most pixels terminate
/// immediately on sky or flat water, giving the coldest heatmap.
fn ship(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0x5819);
    let cam = Camera::look_at(
        Vec3::new(0.0, 5.0, -30.0),
        Vec3::new(0.0, 2.0, 0.0),
        Vec3::Y,
        50.0,
    );
    let mut b = SceneBuilder::new("SHIP", cam);
    let sea = b.add_material(Material::diffuse(Vec3::new(0.1, 0.25, 0.4)));
    let hull = b.add_material(Material::diffuse(Vec3::new(0.45, 0.25, 0.15)));
    let sail = b.add_material(Material::diffuse(Vec3::splat(0.85)));
    let trim = b.add_material(Material::mirror(Vec3::splat(0.8), 0.1));

    b.add_mesh(mesh::heightfield(
        Vec3::ZERO,
        200.0,
        200.0,
        8,
        8,
        0.15,
        sea,
        &mut rng,
    ));
    // Hull: stacked cuboids, slightly detailed.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-4.0, 0.2, -1.5),
        Vec3::new(4.0, 1.8, 1.5),
        hull,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-2.5, 1.8, -1.0),
        Vec3::new(2.5, 2.6, 1.0),
        hull,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(2.6, 1.8, -0.4),
        Vec3::new(3.6, 2.4, 0.4),
        trim,
    ));
    // Masts and sails.
    for (x, h) in [(-1.5f32, 7.0f32), (1.5, 8.5)] {
        b.add_mesh(mesh::cuboid(
            Vec3::new(x - 0.1, 1.8, -0.1),
            Vec3::new(x + 0.1, h, 0.1),
            hull,
        ));
        let mut sails = mesh::heightfield(
            Vec3::new(x, (h + 2.0) * 0.5, 0.6),
            2.6,
            0.1,
            6,
            1,
            0.0,
            sail,
            &mut rng,
        );
        // Tilt the flat sail vertical by swapping Y/Z around its centre.
        for t in &mut sails {
            for v in [&mut t.a, &mut t.b, &mut t.c] {
                let dy = v.z - 0.6;
                v.z = 0.6;
                v.y += dy * ((h - 2.0) / 0.1) * 0.5;
            }
        }
        b.add_mesh(sails);
    }
    // Rigging and deck clutter: a dense knot of small geometry that sets a
    // high per-pixel peak cost, so the vast water/sky area normalizes cold.
    let mut rigging = Vec::new();
    mesh::sphere_flake(
        Vec3::new(0.0, 5.0, 0.3),
        0.5,
        2,
        5,
        3,
        hull,
        &mut rng,
        &mut rigging,
    );
    b.add_mesh(rigging);
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-3.5, 1.9, -1.2),
        Vec3::new(3.5, 2.6, 1.2),
        300,
        (0.05, 0.15),
        hull,
        &mut rng,
    ));
    // Light chop around the ship.
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-12.0, 0.1, -6.0),
        Vec3::new(12.0, 0.3, 6.0),
        500,
        (0.1, 0.25),
        sea,
        &mut rng,
    ));
    b.add_light(Vec3::new(-40.0, 60.0, -40.0), Vec3::splat(9000.0));
    b.build()
}

/// WKND: a weekend cabin on a meadow — the left half of the frame is a
/// complex building with glass windows, the right half is open field,
/// giving a strong warm/cold split.
fn wknd(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0x3EBD);
    let cam = Camera::look_at(
        Vec3::new(2.0, 3.0, -11.0),
        Vec3::new(-2.5, 1.8, 0.0),
        Vec3::Y,
        58.0,
    );
    let mut b = SceneBuilder::new("WKND", cam);
    let field = b.add_material(Material::diffuse(Vec3::new(0.35, 0.45, 0.2)));
    let wall = b.add_material(Material::diffuse(Vec3::new(0.6, 0.5, 0.35)));
    let roof = b.add_material(Material::diffuse(Vec3::new(0.5, 0.2, 0.15)));
    let glass = b.add_material(Material::glass(1.5));
    let deco = b.add_material(Material::mirror(Vec3::splat(0.85), 0.02));

    b.add_mesh(mesh::heightfield(
        Vec3::ZERO,
        80.0,
        80.0,
        12,
        12,
        0.25,
        field,
        &mut rng,
    ));
    // Cabin body on the left.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-9.0, 0.0, -2.0),
        Vec3::new(-3.0, 4.0, 4.0),
        wall,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-9.4, 4.0, -2.4),
        Vec3::new(-2.6, 5.0, 4.4),
        roof,
    ));
    // Dense creeping ivy over the cabin walls: keeps the whole cabin half
    // of the frame uniformly expensive (the "warm" mode of the mix).
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-9.3, 0.2, -2.6),
        Vec3::new(-2.8, 4.2, -1.9),
        2200,
        (0.06, 0.2),
        field,
        &mut rng,
    ));
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-9.6, 0.2, -2.0),
        Vec3::new(-8.9, 4.2, 4.2),
        1400,
        (0.06, 0.2),
        field,
        &mut rng,
    ));
    // Windows (glass panes) on the camera-facing wall.
    for i in 0..3 {
        let x0 = -8.4 + 2.0 * i as f32;
        b.add_mesh(mesh::cuboid(
            Vec3::new(x0, 1.2, -2.15),
            Vec3::new(x0 + 1.2, 2.8, -2.05),
            glass,
        ));
    }
    // Garden ornaments (mirror balls) near the cabin.
    for i in 0..4 {
        b.add_sphere(
            Vec3::new(-2.0 + 1.3 * i as f32, 0.7, -3.0 + rng.range_f32(-0.5, 0.5)),
            0.55,
            deco,
        );
    }
    // Sparse shrubs fading into the empty right half.
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-10.0, 0.2, -4.0),
        Vec3::new(0.0, 1.0, 8.0),
        1800,
        (0.1, 0.4),
        field,
        &mut rng,
    ));
    b.add_light(Vec3::new(20.0, 30.0, -25.0), Vec3::splat(3200.0));
    b.build()
}

/// BUNNY: a dense fractal figure filling the frame on a small pedestal —
/// every pixel traverses deep geometry, giving a uniformly warm heatmap.
fn bunny(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0xB077);
    let cam = Camera::look_at(
        Vec3::new(0.0, 2.1, -4.4),
        Vec3::new(0.0, 2.0, 0.0),
        Vec3::Y,
        58.0,
    );
    let mut b = SceneBuilder::new("BUNNY", cam);
    let fur = b.add_material(Material::diffuse(Vec3::new(0.7, 0.65, 0.55)));
    let base = b.add_material(Material::diffuse(Vec3::splat(0.4)));

    b.add_mesh(mesh::cuboid(
        Vec3::new(-4.0, -0.4, -3.0),
        Vec3::new(4.0, 0.0, 4.0),
        base,
    ));
    // Studio backdrop: mossy wall right behind the figure, so background
    // pixels still traverse real geometry and the whole frame stays warm.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-5.0, 0.0, 3.2),
        Vec3::new(5.0, 7.0, 3.8),
        base,
    ));
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-4.8, 0.1, 2.9),
        Vec3::new(4.8, 6.8, 3.15),
        2600,
        (0.05, 0.18),
        fur,
        &mut rng,
    ));
    // Body, head and ears as nested sphere flakes: dense and bushy.
    let mut body = Vec::new();
    mesh::sphere_flake(
        Vec3::new(0.0, 1.2, 0.0),
        1.1,
        4,
        4,
        5,
        fur,
        &mut rng,
        &mut body,
    );
    mesh::sphere_flake(
        Vec3::new(0.0, 2.8, -0.4),
        0.65,
        3,
        4,
        5,
        fur,
        &mut rng,
        &mut body,
    );
    for side in [-1.0f32, 1.0] {
        mesh::sphere_flake(
            Vec3::new(0.35 * side, 3.6, -0.4),
            0.28,
            2,
            4,
            4,
            fur,
            &mut rng,
            &mut body,
        );
    }
    b.add_mesh(body);
    b.add_light(Vec3::new(6.0, 9.0, -7.0), Vec3::splat(350.0));
    b.add_light(Vec3::new(-5.0, 5.0, -6.0), Vec3::splat(120.0));
    b.build()
}

/// SPRNG: exactly two objects floating in space. Most rays miss everything
/// and terminate immediately; the GPU never fills its warp slots — the
/// underutilization special-case of Fig. 13.
fn sprng(seed: u64) -> Scene {
    let _ = seed; // Fully deterministic: no random geometry.
    let cam = Camera::look_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO, Vec3::Y, 45.0);
    let mut b = SceneBuilder::new("SPRNG", cam);
    let chrome = b.add_material(Material::mirror(Vec3::splat(0.9), 0.0));
    let rubber = b.add_material(Material::diffuse(Vec3::new(0.75, 0.3, 0.25)));
    b.add_sphere(Vec3::new(-1.4, 0.0, 0.0), 1.1, chrome);
    b.add_sphere(Vec3::new(1.6, -0.2, 1.0), 1.3, rubber);
    b.add_light(Vec3::new(8.0, 12.0, -10.0), Vec3::splat(900.0));
    b.build()
}

/// CHSNT: a chestnut tree — one large fractal canopy over scattered husks.
fn chsnt(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0xC457);
    let cam = Camera::look_at(
        Vec3::new(0.0, 3.0, -13.0),
        Vec3::new(0.0, 3.5, 0.0),
        Vec3::Y,
        55.0,
    );
    let mut b = SceneBuilder::new("CHSNT", cam);
    let ground = b.add_material(Material::diffuse(Vec3::new(0.4, 0.35, 0.25)));
    let bark = b.add_material(Material::diffuse(Vec3::new(0.35, 0.25, 0.18)));
    let leaf = b.add_material(Material::diffuse(Vec3::new(0.3, 0.5, 0.15)));
    let husk = b.add_material(Material::diffuse(Vec3::new(0.55, 0.45, 0.2)));

    b.add_mesh(mesh::heightfield(
        Vec3::ZERO,
        50.0,
        50.0,
        32,
        32,
        0.35,
        ground,
        &mut rng,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-0.5, 0.0, -0.5),
        Vec3::new(0.5, 3.4, 0.5),
        bark,
    ));
    let mut canopy = Vec::new();
    mesh::sphere_flake(
        Vec3::new(0.0, 5.4, 0.0),
        2.0,
        4,
        4,
        5,
        leaf,
        &mut rng,
        &mut canopy,
    );
    b.add_mesh(canopy);
    // Fallen chestnuts.
    for _ in 0..40 {
        b.add_sphere(
            Vec3::new(rng.range_f32(-7.0, 7.0), 0.45, rng.range_f32(-4.0, 6.0)),
            rng.range_f32(0.15, 0.3),
            husk,
        );
    }
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-9.0, 0.2, -5.0),
        Vec3::new(9.0, 0.8, 7.0),
        2000,
        (0.1, 0.3),
        leaf,
        &mut rng,
    ));
    b.add_light(Vec3::new(15.0, 22.0, -14.0), Vec3::splat(1800.0));
    b.build()
}

/// SPNZA: an enclosed atrium with colonnades on both sides — architectural
/// depth complexity and lots of secondary-ray occlusion.
fn spnza(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0x59A2);
    let cam = Camera::look_at(
        Vec3::new(0.0, 4.0, -17.0),
        Vec3::new(0.0, 4.0, 0.0),
        Vec3::Y,
        62.0,
    );
    let mut b = SceneBuilder::new("SPNZA", cam);
    let floor = b.add_material(Material::diffuse(Vec3::new(0.5, 0.45, 0.4)));
    let wall = b.add_material(Material::diffuse(Vec3::new(0.6, 0.55, 0.45)));
    let column = b.add_material(Material::diffuse(Vec3::new(0.65, 0.6, 0.5)));
    let drape = b.add_material(Material::diffuse(Vec3::new(0.55, 0.15, 0.12)));

    b.add_mesh(mesh::heightfield(
        Vec3::ZERO,
        22.0,
        44.0,
        6,
        12,
        0.0,
        floor,
        &mut rng,
    ));
    // Side walls and far wall.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-11.0, 0.0, -22.0),
        Vec3::new(-10.0, 10.0, 22.0),
        wall,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(10.0, 0.0, -22.0),
        Vec3::new(11.0, 10.0, 22.0),
        wall,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-11.0, 0.0, 21.0),
        Vec3::new(11.0, 10.0, 22.0),
        wall,
    ));
    // Colonnades: two rows of columns with arches (cuboids) between.
    for i in 0..14 {
        let z = -19.5 + 3.0 * i as f32;
        for x in [-7.0f32, 7.0] {
            b.add_mesh(mesh::cuboid(
                Vec3::new(x - 0.5, 0.0, z - 0.5),
                Vec3::new(x + 0.5, 7.0, z + 0.5),
                column,
            ));
            b.add_mesh(mesh::cuboid(
                Vec3::new(x - 0.8, 7.0, z - 2.8),
                Vec3::new(x + 0.8, 7.8, z + 0.8),
                column,
            ));
        }
        // Hanging drapes between columns on alternating bays.
        if i % 2 == 0 {
            b.add_mesh(mesh::cuboid(
                Vec3::new(-4.0, 4.5, z - 0.1),
                Vec3::new(4.0, 7.0, z + 0.1),
                drape,
            ));
        }
    }
    // Floor debris (pots, rubble) raising depth complexity.
    b.add_mesh(mesh::scatter_tetrahedra(
        Vec3::new(-9.0, 0.1, -20.0),
        Vec3::new(9.0, 0.9, 18.0),
        2500,
        (0.08, 0.3),
        drape,
        &mut rng,
    ));
    // Upper gallery ledges.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-10.0, 7.8, -22.0),
        Vec3::new(-6.0, 8.4, 22.0),
        wall,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(6.0, 7.8, -22.0),
        Vec3::new(10.0, 8.4, 22.0),
        wall,
    ));
    b.add_light(Vec3::new(0.0, 18.0, 0.0), Vec3::splat(2600.0));
    b.add_light(Vec3::new(0.0, 6.0, -14.0), Vec3::new(420.0, 380.0, 320.0));
    b.build()
}

/// BATH: an enclosed bathroom with a large mirror wall, glass shower panel
/// and reflective fixtures. Paths bounce many times before escaping —
/// the longest-running scene (Fig. 14).
fn bath(seed: u64) -> Scene {
    let mut rng = Pcg::new(seed ^ 0xBA78);
    let cam = Camera::look_at(
        Vec3::new(0.0, 3.0, -7.5),
        Vec3::new(0.0, 2.2, 0.0),
        Vec3::Y,
        65.0,
    );
    let mut b = SceneBuilder::new("BATH", cam);
    let tile = b.add_material(Material::diffuse(Vec3::new(0.7, 0.75, 0.8)));
    let mirror = b.add_material(Material::mirror(Vec3::splat(0.92), 0.0));
    let glass = b.add_material(Material::glass(1.5));
    let ceramic = b.add_material(Material::diffuse(Vec3::splat(0.85)));
    let metal = b.add_material(Material::mirror(Vec3::new(0.8, 0.8, 0.85), 0.08));

    // Room shell: floor, ceiling, four walls (one behind the camera too,
    // so reflected paths stay enclosed).
    b.add_mesh(mesh::cuboid(
        Vec3::new(-8.0, -0.5, -9.0),
        Vec3::new(8.0, 0.0, 6.0),
        tile,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-8.0, 6.0, -9.0),
        Vec3::new(8.0, 6.5, 6.0),
        tile,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-8.5, 0.0, -9.0),
        Vec3::new(-8.0, 6.0, 6.0),
        tile,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(8.0, 0.0, -9.0),
        Vec3::new(8.5, 6.0, 6.0),
        tile,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-8.0, 0.0, -9.5),
        Vec3::new(8.0, 6.0, -9.0),
        tile,
    ));
    // Mirror wall at the back.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-8.0, 0.0, 5.9),
        Vec3::new(8.0, 6.0, 6.0),
        mirror,
    ));
    // Glass shower panel.
    b.add_mesh(mesh::cuboid(
        Vec3::new(2.5, 0.0, -2.0),
        Vec3::new(2.6, 5.0, 4.0),
        glass,
    ));
    // Bathtub and sink.
    b.add_mesh(mesh::cuboid(
        Vec3::new(-6.5, 0.0, 1.0),
        Vec3::new(-2.5, 1.4, 4.5),
        ceramic,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(-6.0, 0.3, 1.4),
        Vec3::new(-3.0, 1.5, 4.1),
        tile,
    ));
    b.add_mesh(mesh::cuboid(
        Vec3::new(4.5, 1.6, 3.5),
        Vec3::new(7.0, 2.2, 5.5),
        ceramic,
    ));
    // Fixtures: chrome spheres (tap heads, shower head).
    for (p, r) in [
        (Vec3::new(-4.5, 1.9, 4.3), 0.25f32),
        (Vec3::new(5.7, 2.6, 5.2), 0.2),
        (Vec3::new(2.55, 4.6, 3.5), 0.3),
    ] {
        b.add_sphere(p, r, metal);
    }
    // Tiled wall relief: fine grids on floor and back wall add geometry
    // density comparable to the original scene's tile meshes.
    b.add_mesh(mesh::heightfield(
        Vec3::new(0.0, 0.01, -1.5),
        15.8,
        14.8,
        40,
        40,
        0.015,
        tile,
        &mut rng,
    ));
    // Toiletries clutter.
    for _ in 0..300 {
        b.add_sphere(
            Vec3::new(rng.range_f32(4.6, 6.8), 2.35, rng.range_f32(3.7, 5.3)),
            rng.range_f32(0.08, 0.16),
            ceramic,
        );
    }
    b.add_light(Vec3::new(0.0, 5.6, -2.0), Vec3::splat(260.0));
    b.add_light(Vec3::new(-4.5, 5.4, 2.5), Vec3::new(140.0, 135.0, 120.0));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{profile_costs, TraceConfig};

    #[test]
    fn all_scenes_build() {
        for id in SceneId::ALL {
            let scene = id.build(42);
            assert_eq!(scene.name(), id.name());
            assert!(scene.primitive_count() > 0, "{id} has no geometry");
            assert!(!scene.lights().is_empty(), "{id} has no lights");
        }
    }

    #[test]
    fn every_scene_fits_the_traversal_stack_with_room() {
        // Strictly below the limit: the builder's depth cap never fired, so
        // no registry scene's tree was reshaped to fit the inline stack.
        for id in SceneId::ALL {
            for seed in [1, 42, 77] {
                let depth = id.build(seed).bvh().depth();
                assert!(depth < crate::bvh::MAX_DEPTH, "{id} seed {seed}: {depth}");
            }
        }
    }

    #[test]
    fn scene_builds_are_deterministic() {
        for id in [SceneId::Park, SceneId::Bath] {
            let a = id.build(7);
            let b = id.build(7);
            assert_eq!(a.primitive_count(), b.primitive_count());
            assert_eq!(a.primitives()[0], b.primitives()[0]);
        }
    }

    #[test]
    fn names_roundtrip() {
        for id in SceneId::ALL {
            assert_eq!(by_name(id.name()), Some(id));
            assert_eq!(by_name(&id.name().to_lowercase()), Some(id));
        }
        assert_eq!(by_name("NOPE"), None);
    }

    #[test]
    fn registry_matches_scene_id_api() {
        assert_eq!(all(), SceneId::ALL);
        for id in all() {
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn sprng_has_exactly_two_objects() {
        let scene = SceneId::Sprng.build(0);
        assert_eq!(scene.primitive_count(), 2);
    }

    #[test]
    fn representative_subset_is_subset_of_all() {
        for id in SceneId::REPRESENTATIVE {
            assert!(SceneId::ALL.contains(&id));
        }
    }

    #[test]
    fn park_costs_more_than_sprng() {
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 3,
            seed: 1,
        };
        let park = SceneId::Park.build(1);
        let sprng = SceneId::Sprng.build(1);
        let pc = profile_costs(&park, 24, 24, &cfg);
        let sc = profile_costs(&sprng, 24, 24, &cfg);
        let park_total: u64 = pc.values().iter().sum();
        let sprng_total: u64 = sc.values().iter().sum();
        assert!(
            park_total > sprng_total * 3,
            "PARK ({park_total}) should far out-cost SPRNG ({sprng_total})"
        );
    }

    #[test]
    fn bunny_heatmap_warmer_and_more_uniform_than_ship() {
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 3,
            seed: 2,
        };
        let bunny = profile_costs(&SceneId::Bunny.build(2), 24, 24, &cfg);
        let ship = profile_costs(&SceneId::Ship.build(2), 24, 24, &cfg);
        let mean = |c: &crate::tracer::CostMap| {
            c.values().iter().sum::<u64>() as f64 / c.values().len() as f64
        };
        let frac_above = |c: &crate::tracer::CostMap| {
            let m = c.max() as f64;
            c.values().iter().filter(|&&v| v as f64 > 0.35 * m).count() as f64
                / c.values().len() as f64
        };
        assert!(
            mean(&bunny) > mean(&ship),
            "BUNNY should be warmer than SHIP"
        );
        assert!(
            frac_above(&bunny) > frac_above(&ship),
            "BUNNY should be more uniformly warm"
        );
    }
}
