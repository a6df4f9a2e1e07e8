//! Axis-aligned bounding boxes used by the BVH.

use super::{Ray, Vec3};

/// An axis-aligned bounding box, the building block of the BVH tree
/// (Section II-A of the paper).
///
/// The empty box is represented with inverted (`+inf`/`-inf`) bounds so that
/// growing an empty box by a point yields the point itself.
///
/// # Examples
///
/// ```
/// use rtcore::math::{Aabb, Vec3};
///
/// let mut b = Aabb::empty();
/// b.grow_point(Vec3::ZERO);
/// b.grow_point(Vec3::ONE);
/// assert_eq!(b.centroid(), Vec3::splat(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower corner.
    pub min: Vec3,
    /// Upper corner.
    pub max: Vec3,
}

minijson::record! {
    Aabb {
        "min" => min,
        "max" => max,
    }
}

impl Aabb {
    /// The empty box (inverted infinite bounds).
    #[inline]
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
        }
    }

    /// Creates a box from two corners.
    ///
    /// The corners may be given in any order; they are sorted per component.
    #[inline]
    pub fn from_corners(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Returns `true` if the box contains no points (any inverted axis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Expands the box to contain `p`.
    #[inline]
    pub fn grow_point(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Union of two boxes.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Box centre.
    #[inline]
    pub fn centroid(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extent (`max - min`).
    #[inline]
    pub(crate) fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Surface area; the quantity minimised by the SAH build heuristic.
    /// Returns `0.0` for an empty box.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Returns `true` if `p` lies inside the box (inclusive).
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Slab-test ray/box intersection, defined for every ray.
    ///
    /// `inv_dir` must be `ray.inv_dir()`; it is passed in so traversal can
    /// compute it once per ray. Returns the entry distance when the ray
    /// overlaps the box within `[ray.t_min, ray.t_max]`; the empty box is
    /// always missed.
    ///
    /// Each axis's near and far plane is picked by the sign of `inv_dir`
    /// (Williams et al., JGT 2005), and the distances to them are folded
    /// into the ray's bounds with compare-selects that keep the running
    /// bound when the axis distance is NaN (Ize, JCGT 2013). A NaN arises
    /// only as `0 · ∞`, from a ray with a zero (or reciprocal-overflowing)
    /// direction component whose origin lies in one of that axis's planes:
    /// the ray runs in the plane, and the axis leaves it unconstrained.
    #[inline]
    pub fn hit(&self, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
        slab(&[self.min, self.max], ray, inv_dir)
    }
}

/// [`Aabb::hit`] on a box held as its `[min, max]` corners, as the BVH's
/// nodes hold theirs: a plane is then a load at an index the ray fixes,
/// where picking between two fields costs a select per plane and box.
#[inline(always)]
pub(crate) fn slab(corners: &[Vec3; 2], ray: &Ray, inv_dir: Vec3) -> Option<f32> {
    let near = |inv: f32| usize::from(inv.is_sign_negative());
    let (x, y, z) = (near(inv_dir.x), near(inv_dir.y), near(inv_dir.z));
    let o = ray.origin;
    // The axis distance `t` comes first: a NaN fails the comparison and the
    // running bound is kept.
    let hi = |t: f32, bound: f32| if t > bound { t } else { bound };
    let lo = |t: f32, bound: f32| if t < bound { t } else { bound };
    let t_enter = hi((corners[x].x - o.x) * inv_dir.x, ray.t_min);
    let t_enter = hi((corners[y].y - o.y) * inv_dir.y, t_enter);
    let t_enter = hi((corners[z].z - o.z) * inv_dir.z, t_enter);
    let t_exit = lo((corners[1 - x].x - o.x) * inv_dir.x, ray.t_max);
    let t_exit = lo((corners[1 - y].y - o.y) * inv_dir.y, t_exit);
    let t_exit = lo((corners[1 - z].z - o.z) * inv_dir.z, t_exit);
    (t_enter <= t_exit).then_some(t_enter)
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::empty()
    }
}

impl FromIterator<Vec3> for Aabb {
    fn from_iter<I: IntoIterator<Item = Vec3>>(iter: I) -> Self {
        let mut b = Aabb::empty();
        for p in iter {
            b.grow_point(p);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::from_corners(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn empty_box_properties() {
        let b = Aabb::empty();
        assert!(b.is_empty());
        assert_eq!(b.surface_area(), 0.0);
    }

    #[test]
    fn grow_from_empty_yields_point() {
        let mut b = Aabb::empty();
        let p = Vec3::new(1.0, 2.0, 3.0);
        b.grow_point(p);
        assert_eq!(b.min, p);
        assert_eq!(b.max, p);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_corners_sorts_components() {
        let b = Aabb::from_corners(Vec3::ONE, Vec3::ZERO);
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::ONE);
    }

    #[test]
    fn union_covers_both() {
        let a = unit_box();
        let c = Aabb::from_corners(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&c);
        assert!(u.contains_point(Vec3::splat(0.5)));
        assert!(u.contains_point(Vec3::splat(2.5)));
    }

    #[test]
    fn surface_area_of_unit_cube() {
        assert_eq!(unit_box().surface_area(), 6.0);
    }

    #[test]
    fn ray_hits_box_head_on() {
        let b = unit_box();
        let r = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let t = b.hit(&r, r.inv_dir()).expect("must hit");
        assert!((t - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ray_misses_box() {
        let b = unit_box();
        let r = Ray::new(Vec3::new(2.0, 2.0, -1.0), Vec3::Z);
        assert!(b.hit(&r, r.inv_dir()).is_none());
    }

    #[test]
    fn ray_starting_inside_hits() {
        let b = unit_box();
        let r = Ray::new(Vec3::splat(0.5), Vec3::X);
        assert!(b.hit(&r, r.inv_dir()).is_some());
    }

    #[test]
    fn bounded_ray_respects_t_max() {
        let b = Aabb::from_corners(Vec3::new(0.0, 0.0, 10.0), Vec3::new(1.0, 1.0, 11.0));
        let r = Ray::segment(Vec3::new(0.5, 0.5, 0.0), Vec3::Z, 5.0);
        assert!(b.hit(&r, r.inv_dir()).is_none());
    }

    #[test]
    fn axis_parallel_ray_on_face() {
        // Direction has zero components; inv_dir contains infinities.
        let b = unit_box();
        let r = Ray::new(Vec3::new(0.5, 0.5, -3.0), Vec3::Z);
        assert!(b.hit(&r, r.inv_dir()).is_some());
    }

    #[test]
    fn collect_from_points() {
        let b: Aabb = [Vec3::ZERO, Vec3::new(2.0, -1.0, 3.0)]
            .into_iter()
            .collect();
        assert_eq!(b.min, Vec3::new(0.0, -1.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 0.0, 3.0));
    }
}
