//! Rays and ray/interval utilities.

use super::Vec3;

/// Smallest parametric distance considered a valid hit; avoids
/// self-intersection ("shadow acne") when spawning secondary rays.
pub const RAY_EPSILON: f32 = 1e-4;

/// A half-open parametric ray `origin + t * dir` for `t ∈ [t_min, t_max)`.
///
/// # Examples
///
/// ```
/// use rtcore::math::{Ray, Vec3};
///
/// let ray = Ray::new(Vec3::ZERO, Vec3::Z);
/// assert_eq!(ray.at(2.0), Vec3::new(0.0, 0.0, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Ray direction. Not required to be normalized, but every constructor
    /// in this crate produces unit directions.
    pub dir: Vec3,
    /// Minimum accepted hit distance.
    pub t_min: f32,
    /// Maximum accepted hit distance.
    pub t_max: f32,
}

impl Ray {
    /// Creates a ray over `[RAY_EPSILON, +inf)`.
    #[inline]
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray {
            origin,
            dir,
            t_min: RAY_EPSILON,
            t_max: f32::INFINITY,
        }
    }

    /// Creates a segment ray, used for shadow/occlusion queries that must
    /// stop at the light source.
    #[inline]
    pub fn segment(origin: Vec3, dir: Vec3, t_max: f32) -> Self {
        Ray {
            origin,
            dir,
            t_min: RAY_EPSILON,
            t_max,
        }
    }

    /// Point at parametric distance `t`.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Reciprocal of the direction, with signed infinities for zero
    /// components. Precomputed once per ray for slab-test AABB intersection.
    #[inline]
    pub fn inv_dir(&self) -> Vec3 {
        Vec3::new(1.0 / self.dir.x, 1.0 / self.dir.y, 1.0 / self.dir.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_walks_along_direction() {
        let r = Ray::new(Vec3::new(1.0, 0.0, 0.0), Vec3::Y);
        assert_eq!(r.at(0.0), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(r.at(3.0), Vec3::new(1.0, 3.0, 0.0));
    }

    #[test]
    fn new_ray_is_unbounded() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        assert_eq!(r.t_min, RAY_EPSILON);
        assert_eq!(r.t_max, f32::INFINITY);
    }

    #[test]
    fn segment_ray_is_bounded() {
        let r = Ray::segment(Vec3::ZERO, Vec3::X, 5.0);
        assert_eq!(r.t_max, 5.0);
    }

    #[test]
    fn inv_dir_handles_zero_components() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        let inv = r.inv_dir();
        assert_eq!(inv.x, 1.0);
        assert!(inv.y.is_infinite());
        assert!(inv.z.is_infinite());
    }
}
