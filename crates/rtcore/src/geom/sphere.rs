//! Analytic sphere primitive.

use crate::material::MaterialId;
use crate::math::{Aabb, Ray, Vec3};

/// An analytic sphere with a material reference.
///
/// Spheres keep the scene descriptions compact; sparse scenes like SPRNG
/// (paper Fig. 9) are built almost entirely from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Centre of the sphere.
    pub center: Vec3,
    /// Radius (must be positive).
    pub radius: f32,
    /// Material used to shade hits on this sphere.
    pub material: MaterialId,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    pub fn new(center: Vec3, radius: f32, material: MaterialId) -> Self {
        assert!(radius > 0.0, "sphere radius must be positive, got {radius}");
        Sphere {
            center,
            radius,
            material,
        }
    }

    /// Bounding box of the sphere.
    pub(crate) fn bounds(&self) -> Aabb {
        let r = Vec3::splat(self.radius);
        Aabb {
            min: self.center - r,
            max: self.center + r,
        }
    }

    /// Outward unit normal at a surface point `p`.
    pub(crate) fn normal_at(&self, p: Vec3) -> Vec3 {
        (p - self.center) / self.radius
    }

    /// Ray/sphere intersection returning the nearest hit distance within
    /// `[ray.t_min, ray.t_max]`. A NaN (from a direction with an infinite
    /// component) fails every comparison here, so it is a miss.
    pub fn hit(&self, ray: &Ray) -> Option<f32> {
        let oc = ray.origin - self.center;
        let a = ray.dir.length_squared();
        let half_b = oc.dot(ray.dir);
        let c = oc.length_squared() - self.radius * self.radius;
        let disc = half_b * half_b - a * c;
        // `>=` is false for a NaN discriminant too.
        let sqrt_d = (disc >= 0.0).then(|| disc.sqrt())?;
        let in_range = |t: f32| t >= ray.t_min && t <= ray.t_max;
        let near = (-half_b - sqrt_d) / a;
        if in_range(near) {
            return Some(near);
        }
        let far = (-half_b + sqrt_d) / a;
        in_range(far).then_some(far)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_sphere() -> Sphere {
        Sphere::new(Vec3::ZERO, 1.0, MaterialId(0))
    }

    #[test]
    fn head_on_hit_distance() {
        let r = Ray::new(Vec3::new(0.0, 0.0, -3.0), Vec3::Z);
        let t = unit_sphere().hit(&r).expect("must hit");
        assert!((t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn miss_off_axis() {
        let r = Ray::new(Vec3::new(0.0, 2.0, -3.0), Vec3::Z);
        assert!(unit_sphere().hit(&r).is_none());
    }

    #[test]
    fn inside_hit_uses_far_root() {
        let r = Ray::new(Vec3::ZERO, Vec3::Z);
        let t = unit_sphere().hit(&r).expect("inside rays exit");
        assert!((t - 1.0).abs() < 1e-5);
    }

    #[test]
    fn behind_origin_is_miss() {
        let r = Ray::new(Vec3::new(0.0, 0.0, 3.0), Vec3::Z);
        assert!(unit_sphere().hit(&r).is_none());
    }

    #[test]
    fn normal_points_outward() {
        let s = unit_sphere();
        let n = s.normal_at(Vec3::new(0.0, 1.0, 0.0));
        assert!((n - Vec3::Y).length() < 1e-6);
    }

    #[test]
    fn bounds_are_tight() {
        let s = Sphere::new(Vec3::new(1.0, 2.0, 3.0), 0.5, MaterialId(0));
        let bb = s.bounds();
        assert_eq!(bb.min, Vec3::new(0.5, 1.5, 2.5));
        assert_eq!(bb.max, Vec3::new(1.5, 2.5, 3.5));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_radius_panics() {
        Sphere::new(Vec3::ZERO, 0.0, MaterialId(0));
    }
}
