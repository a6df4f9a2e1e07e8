//! Procedural triangle-mesh builders used by the benchmark scenes.
//!
//! The LumiBench scenes are distributed as glTF assets; this reproduction
//! substitutes procedural geometry with matching *cost characteristics*
//! (triangle counts, depth complexity, open vs. enclosed spaces). These
//! builders are the vocabulary those scenes are written in.

use crate::material::MaterialId;
use crate::math::{Pcg, Vec3};

use super::Triangle;

/// Appends a quad (two triangles) spanning corners `a → b → c → d` in order.
pub(crate) fn push_quad(
    out: &mut Vec<Triangle>,
    a: Vec3,
    b: Vec3,
    c: Vec3,
    d: Vec3,
    mat: MaterialId,
) {
    out.push(Triangle::new(a, b, c, mat));
    out.push(Triangle::new(a, c, d, mat));
}

/// Builds a rectangular grid on the XZ plane centred at `center`, subdivided
/// into `nx × nz` cells (two triangles each), with per-vertex height noise of
/// amplitude `bump` driven by `rng`. With `bump == 0` this is a flat floor.
#[expect(
    clippy::too_many_arguments,
    reason = "a plain geometric parameter list; a builder would obscure it"
)]
pub(crate) fn heightfield(
    center: Vec3,
    size_x: f32,
    size_z: f32,
    nx: usize,
    nz: usize,
    bump: f32,
    mat: MaterialId,
    rng: &mut Pcg,
) -> Vec<Triangle> {
    assert!(nx > 0 && nz > 0, "heightfield needs at least one cell");
    let mut heights = vec![0.0f32; (nx + 1) * (nz + 1)];
    if bump > 0.0 {
        for h in &mut heights {
            *h = rng.range_f32(-bump, bump);
        }
    }
    let vertex = |ix: usize, iz: usize, heights: &[f32]| -> Vec3 {
        let fx = ix as f32 / nx as f32 - 0.5;
        let fz = iz as f32 / nz as f32 - 0.5;
        center + Vec3::new(fx * size_x, heights[iz * (nx + 1) + ix], fz * size_z)
    };
    let mut tris = Vec::with_capacity(nx * nz * 2);
    for iz in 0..nz {
        for ix in 0..nx {
            let p00 = vertex(ix, iz, &heights);
            let p10 = vertex(ix + 1, iz, &heights);
            let p01 = vertex(ix, iz + 1, &heights);
            let p11 = vertex(ix + 1, iz + 1, &heights);
            tris.push(Triangle::new(p00, p10, p11, mat));
            tris.push(Triangle::new(p00, p11, p01, mat));
        }
    }
    tris
}

/// Builds an axis-aligned box from `min` to `max` (12 triangles).
pub(crate) fn cuboid(min: Vec3, max: Vec3, mat: MaterialId) -> Vec<Triangle> {
    let (x0, y0, z0) = (min.x, min.y, min.z);
    let (x1, y1, z1) = (max.x, max.y, max.z);
    let p = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
    let mut tris = Vec::with_capacity(12);
    // -Z and +Z faces.
    push_quad(
        &mut tris,
        p(x0, y0, z0),
        p(x1, y0, z0),
        p(x1, y1, z0),
        p(x0, y1, z0),
        mat,
    );
    push_quad(
        &mut tris,
        p(x0, y0, z1),
        p(x0, y1, z1),
        p(x1, y1, z1),
        p(x1, y0, z1),
        mat,
    );
    // -Y and +Y faces.
    push_quad(
        &mut tris,
        p(x0, y0, z0),
        p(x0, y0, z1),
        p(x1, y0, z1),
        p(x1, y0, z0),
        mat,
    );
    push_quad(
        &mut tris,
        p(x0, y1, z0),
        p(x1, y1, z0),
        p(x1, y1, z1),
        p(x0, y1, z1),
        mat,
    );
    // -X and +X faces.
    push_quad(
        &mut tris,
        p(x0, y0, z0),
        p(x0, y1, z0),
        p(x0, y1, z1),
        p(x0, y0, z1),
        mat,
    );
    push_quad(
        &mut tris,
        p(x1, y0, z0),
        p(x1, y0, z1),
        p(x1, y1, z1),
        p(x1, y1, z0),
        mat,
    );
    tris
}

/// Builds a UV sphere mesh with `stacks × slices` resolution.
pub(crate) fn uv_sphere(
    center: Vec3,
    radius: f32,
    stacks: usize,
    slices: usize,
    mat: MaterialId,
) -> Vec<Triangle> {
    assert!(
        stacks >= 2 && slices >= 3,
        "uv_sphere needs stacks >= 2 and slices >= 3"
    );
    let point = |stack: usize, slice: usize| -> Vec3 {
        let theta = std::f32::consts::PI * stack as f32 / stacks as f32;
        let phi = 2.0 * std::f32::consts::PI * slice as f32 / slices as f32;
        center
            + Vec3::new(
                radius * theta.sin() * phi.cos(),
                radius * theta.cos(),
                radius * theta.sin() * phi.sin(),
            )
    };
    let mut tris = Vec::with_capacity(stacks * slices * 2);
    for st in 0..stacks {
        for sl in 0..slices {
            let p00 = point(st, sl);
            let p10 = point(st + 1, sl);
            let p01 = point(st, sl + 1);
            let p11 = point(st + 1, sl + 1);
            if st != 0 {
                tris.push(Triangle::new(p00, p10, p01, mat));
            }
            if st != stacks - 1 {
                tris.push(Triangle::new(p10, p11, p01, mat));
            }
        }
    }
    tris
}

/// Recursive sphere-flake fractal built from UV spheres: a parent sphere with
/// `children` smaller spheres on its surface, recursing `depth` levels.
/// High depth complexity makes these expensive to trace — the procedural
/// stand-in for dense foliage or statues.
#[expect(
    clippy::too_many_arguments,
    reason = "a plain geometric parameter list; a builder would obscure it"
)]
pub(crate) fn sphere_flake(
    center: Vec3,
    radius: f32,
    depth: usize,
    children: usize,
    mesh_res: usize,
    mat: MaterialId,
    rng: &mut Pcg,
    out: &mut Vec<Triangle>,
) {
    out.extend(uv_sphere(
        center,
        radius,
        mesh_res.max(2),
        (mesh_res * 2).max(3),
        mat,
    ));
    if depth == 0 {
        return;
    }
    for i in 0..children {
        let phi = 2.0 * std::f32::consts::PI * (i as f32 + rng.next_f32() * 0.3) / children as f32;
        let elev = rng.range_f32(-0.5, 1.0);
        let dir = Vec3::new(phi.cos(), elev, phi.sin()).normalized();
        let child_r = radius * 0.45;
        sphere_flake(
            center + dir * (radius + child_r * 0.9),
            child_r,
            depth - 1,
            children,
            mesh_res,
            mat,
            rng,
            out,
        );
    }
}

/// Scatters `count` randomly scaled tetrahedra inside `region_min..region_max`.
/// Produces incoherent "clutter" geometry that stresses BVH traversal the way
/// foliage does in the PARK scene.
pub(crate) fn scatter_tetrahedra(
    region_min: Vec3,
    region_max: Vec3,
    count: usize,
    scale_range: (f32, f32),
    mat: MaterialId,
    rng: &mut Pcg,
) -> Vec<Triangle> {
    let mut tris = Vec::with_capacity(count * 4);
    for _ in 0..count {
        let base = Vec3::new(
            rng.range_f32(region_min.x, region_max.x),
            rng.range_f32(region_min.y, region_max.y),
            rng.range_f32(region_min.z, region_max.z),
        );
        let s = rng.range_f32(scale_range.0, scale_range.1);
        let a = base + Vec3::new(s, 0.0, 0.0);
        let b = base + Vec3::new(-0.5 * s, 0.0, 0.87 * s);
        let c = base + Vec3::new(-0.5 * s, 0.0, -0.87 * s);
        let d = base + Vec3::new(0.0, 1.2 * s, 0.0);
        tris.push(Triangle::new(a, b, c, mat));
        tris.push(Triangle::new(a, b, d, mat));
        tris.push(Triangle::new(b, c, d, mat));
        tris.push(Triangle::new(c, a, d, mat));
    }
    tris
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Aabb;

    fn area(t: &Triangle) -> f32 {
        0.5 * (t.b - t.a).cross(t.c - t.a).length()
    }

    #[test]
    fn quad_is_two_triangles() {
        let mut v = Vec::new();
        push_quad(
            &mut v,
            Vec3::ZERO,
            Vec3::X,
            Vec3::X + Vec3::Y,
            Vec3::Y,
            MaterialId(0),
        );
        assert_eq!(v.len(), 2);
        let area: f32 = v.iter().map(area).sum();
        assert!((area - 1.0).abs() < 1e-5);
    }

    #[test]
    fn heightfield_counts_and_extent() {
        let mut rng = Pcg::new(1);
        let tris = heightfield(Vec3::ZERO, 10.0, 20.0, 4, 5, 0.0, MaterialId(0), &mut rng);
        assert_eq!(tris.len(), 4 * 5 * 2);
        let bb: Aabb = tris.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
        assert!((bb.extent().x - 10.0).abs() < 1e-4);
        assert!((bb.extent().z - 20.0).abs() < 1e-4);
        assert!(bb.extent().y < 1e-6, "flat field must stay flat");
    }

    #[test]
    fn heightfield_bump_changes_heights() {
        let mut rng = Pcg::new(2);
        let tris = heightfield(Vec3::ZERO, 4.0, 4.0, 8, 8, 0.5, MaterialId(0), &mut rng);
        let bb: Aabb = tris.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
        assert!(bb.extent().y > 0.1);
        assert!(bb.extent().y <= 1.0 + 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn heightfield_zero_cells_panics() {
        let mut rng = Pcg::new(0);
        heightfield(Vec3::ZERO, 1.0, 1.0, 0, 1, 0.0, MaterialId(0), &mut rng);
    }

    #[test]
    fn cuboid_has_twelve_triangles_enclosing_box() {
        let tris = cuboid(Vec3::ZERO, Vec3::ONE, MaterialId(0));
        assert_eq!(tris.len(), 12);
        let area: f32 = tris.iter().map(area).sum();
        assert!((area - 6.0).abs() < 1e-4);
    }

    #[test]
    fn uv_sphere_area_approximates_analytic() {
        let tris = uv_sphere(Vec3::ZERO, 1.0, 32, 64, MaterialId(0));
        let area: f32 = tris.iter().map(area).sum();
        let analytic = 4.0 * std::f32::consts::PI;
        assert!(
            (area - analytic).abs() / analytic < 0.02,
            "area {area} vs {analytic}"
        );
    }

    #[test]
    fn sphere_flake_grows_with_depth() {
        let mut rng = Pcg::new(3);
        let mut d0 = Vec::new();
        sphere_flake(Vec3::ZERO, 1.0, 0, 4, 3, MaterialId(0), &mut rng, &mut d0);
        let mut rng = Pcg::new(3);
        let mut d2 = Vec::new();
        sphere_flake(Vec3::ZERO, 1.0, 2, 4, 3, MaterialId(0), &mut rng, &mut d2);
        assert!(d2.len() > d0.len() * 10);
    }

    #[test]
    fn scatter_stays_in_region() {
        let mut rng = Pcg::new(4);
        let lo = Vec3::ZERO;
        let hi = Vec3::splat(10.0);
        let tris = scatter_tetrahedra(lo, hi, 50, (0.1, 0.2), MaterialId(0), &mut rng);
        assert_eq!(tris.len(), 200);
        let bb: Aabb = tris.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
        // Tetrahedra extend at most ~1.2 * max scale beyond the sample region.
        assert!(bb.min.x > -0.5 && bb.max.x < 10.5);
    }
}
