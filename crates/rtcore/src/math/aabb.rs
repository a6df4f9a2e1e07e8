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

    /// Expands the box to contain `other`.
    #[inline]
    pub fn grow_box(&mut self, other: &Aabb) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    pub fn extent(&self) -> Vec3 {
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

    /// Slab-test ray/box intersection: the reference test, defined for
    /// every ray.
    ///
    /// `inv_dir` must be `ray.inv_dir()`; it is passed in so traversal can
    /// compute it once per ray. Returns the entry distance when the ray
    /// overlaps the box within `[ray.t_min, ray.t_max]`.
    ///
    /// A ray with a zero direction component whose origin lies on one of
    /// the box's planes on that axis makes the product `0 · ∞` NaN, and the
    /// NaN-ignoring `f32::min`/`max` keep the slab's other bound: a ray
    /// running in a face plane of a solid box misses it, one in the plane
    /// of a flat box ignores that axis. Rays that can produce no NaN
    /// ([`Ray::slab_finite`]) may take [`Aabb::hit_finite`] instead.
    #[inline]
    pub fn hit(&self, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
        let t0 = (self.min - ray.origin).hadamard(inv_dir);
        let t1 = (self.max - ray.origin).hadamard(inv_dir);
        let t_near = t0.min(t1);
        let t_far = t0.max(t1);
        let t_enter = t_near.max_component().max(ray.t_min);
        let t_exit = t_far.min_component().min(ray.t_max);
        if t_enter <= t_exit {
            Some(t_enter)
        } else {
            None
        }
    }

    /// [`Aabb::hit`] with plain compare-select min/max, for a ray in the
    /// class of [`Ray::slab_finite`].
    ///
    /// For such a ray no slab product or difference is NaN, against a
    /// finite box or the empty one, and compare-select agrees with
    /// `f32::min`/`max` on every non-NaN pair except for which zero it
    /// returns from `(-0.0, 0.0)`: the result equals [`Aabb::hit`]'s up to
    /// the sign of a zero entry distance, which comparisons cannot see.
    #[inline]
    pub fn hit_finite(&self, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
        let lo = |a: f32, b: f32| if a < b { a } else { b };
        let hi = |a: f32, b: f32| if a > b { a } else { b };
        let t0 = (self.min - ray.origin).hadamard(inv_dir);
        let t1 = (self.max - ray.origin).hadamard(inv_dir);
        let t_near = hi(hi(lo(t0.x, t1.x), lo(t0.y, t1.y)), lo(t0.z, t1.z));
        let t_far = lo(lo(hi(t0.x, t1.x), hi(t0.y, t1.y)), hi(t0.z, t1.z));
        let t_enter = hi(t_near, ray.t_min);
        (t_enter <= lo(t_far, ray.t_max)).then_some(t_enter)
    }
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
    use proptest::prelude::*;

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

    fn coord() -> impl Strategy<Value = f32> {
        -10.0f32..10.0
    }

    fn point() -> impl Strategy<Value = Vec3> {
        (coord(), coord(), coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    /// `v` with component `axis` replaced by `value`.
    fn with_axis(v: Vec3, axis: usize, value: f32) -> Vec3 {
        match axis {
            0 => Vec3::new(value, v.y, v.z),
            1 => Vec3::new(v.x, value, v.z),
            _ => Vec3::new(v.x, v.y, value),
        }
    }

    /// Solid boxes, boxes flat along one axis, single points and the empty
    /// box.
    fn any_box() -> impl Strategy<Value = Aabb> {
        prop_oneof![
            (point(), point()).prop_map(|(a, b)| Aabb::from_corners(a, b)),
            (point(), point(), 0usize..3).prop_map(|(a, b, axis)| {
                let b = Aabb::from_corners(a, b);
                Aabb::from_corners(b.min, with_axis(b.max, axis, b.min[axis]))
            }),
            point().prop_map(|p| Aabb::from_corners(p, p)),
            Just(Aabb::empty()),
        ]
    }

    /// A direction component that is finite, non-zero and has a finite
    /// reciprocal, down to near the subnormal edge.
    fn component() -> impl Strategy<Value = f32> {
        (-1.0f32..1.0, 0i32..40).prop_map(|(v, e)| {
            let v = if v.abs() < 1e-3 { 1e-3 } else { v };
            v * 2f32.powi(-3 * e)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// For rays in the fast class the NaN-free test returns exactly what
        /// the reference returns. `==` on `Option<f32>` treats `-0.0` and
        /// `0.0` as equal, which is the one way the two may differ; every
        /// consumer of the entry distance only compares it, where the sign
        /// of a zero is invisible.
        #[test]
        fn finite_slab_test_equals_the_reference(
            b in any_box(),
            origin in point(),
            on_plane in 0usize..4,
            dir in (component(), component(), component()),
            t_min in prop_oneof![Just(crate::math::RAY_EPSILON), Just(0.0f32), -5.0f32..5.0],
            t_max in prop_oneof![Just(f32::INFINITY), 0.0f32..30.0],
        ) {
            // Sometimes start on one of the box's slab planes.
            let origin = if on_plane < 3 && !b.is_empty() {
                with_axis(origin, on_plane, b.min[on_plane])
            } else {
                origin
            };
            let ray = Ray { origin, dir: Vec3::new(dir.0, dir.1, dir.2), t_min, t_max };
            let inv_dir = ray.inv_dir();
            prop_assume!(ray.slab_finite(inv_dir));
            prop_assert_eq!(b.hit_finite(&ray, inv_dir), b.hit(&ray, inv_dir));
        }
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
