//! Triangle primitive with Möller–Trumbore intersection.

use crate::material::MaterialId;
use crate::math::{Aabb, Ray, Vec3};

/// A single triangle with a material reference.
///
/// Triangles are the base geometric primitive enclosed by the BVH's
/// axis-aligned bounding boxes (paper Section II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Vec3,
    /// Second vertex.
    pub b: Vec3,
    /// Third vertex.
    pub c: Vec3,
    /// Material used to shade hits on this triangle.
    pub material: MaterialId,
}

impl Triangle {
    /// Creates a triangle from three vertices and a material.
    pub fn new(a: Vec3, b: Vec3, c: Vec3, material: MaterialId) -> Self {
        Triangle { a, b, c, material }
    }

    /// Bounding box of the triangle.
    pub(crate) fn bounds(&self) -> Aabb {
        let mut bb = Aabb::empty();
        bb.grow_point(self.a);
        bb.grow_point(self.b);
        bb.grow_point(self.c);
        bb
    }

    /// Geometric (unnormalized-winding) unit normal.
    pub(crate) fn normal(&self) -> Vec3 {
        (self.b - self.a)
            .cross(self.c - self.a)
            .try_normalized()
            .unwrap_or(Vec3::Y)
    }

    /// Triangle centroid.
    pub(crate) fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Möller–Trumbore ray/triangle intersection.
    ///
    /// Returns the hit distance `t` within `[ray.t_min, ray.t_max]`, or
    /// `None` on a miss. Back faces are reported as hits (two-sided
    /// geometry), which matches how the procedural scenes are authored.
    pub(crate) fn hit(&self, ray: &Ray) -> Option<f32> {
        let e1 = self.b - self.a;
        let e2 = self.c - self.a;
        let pvec = ray.dir.cross(e2);
        let det = e1.dot(pvec);
        if det.abs() < 1e-9 {
            return None; // Ray parallel to the triangle plane.
        }
        let inv_det = 1.0 / det;
        let tvec = ray.origin - self.a;
        let u = tvec.dot(pvec) * inv_det;
        if !(0.0..=1.0).contains(&u) {
            return None;
        }
        let qvec = tvec.cross(e1);
        let v = ray.dir.dot(qvec) * inv_det;
        if v < 0.0 || u + v > 1.0 {
            return None;
        }
        let t = e2.dot(qvec) * inv_det;
        if t >= ray.t_min && t <= ray.t_max {
            Some(t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Triangle {
        Triangle::new(
            Vec3::new(-1.0, -1.0, 0.0),
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            MaterialId(0),
        )
    }

    #[test]
    fn hit_through_center() {
        let r = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::Z);
        let t = tri().hit(&r).expect("must hit");
        assert!((t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn miss_outside_edges() {
        let r = Ray::new(Vec3::new(2.0, 2.0, -2.0), Vec3::Z);
        assert!(tri().hit(&r).is_none());
    }

    #[test]
    fn backface_hits_are_reported() {
        let r = Ray::new(Vec3::new(0.0, 0.0, 2.0), -Vec3::Z);
        assert!(tri().hit(&r).is_some());
    }

    #[test]
    fn parallel_ray_misses() {
        let r = Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X);
        assert!(tri().hit(&r).is_none());
    }

    #[test]
    fn respects_t_max() {
        let r = Ray::segment(Vec3::new(0.0, 0.0, -2.0), Vec3::Z, 1.0);
        assert!(tri().hit(&r).is_none());
    }

    #[test]
    fn bounds_contain_vertices() {
        let t = tri();
        let bb = t.bounds();
        assert!(bb.contains_point(t.a));
        assert!(bb.contains_point(t.b));
        assert!(bb.contains_point(t.c));
    }

    #[test]
    fn normal_is_unit_and_perpendicular() {
        let t = tri();
        let n = t.normal();
        assert!((n.length() - 1.0).abs() < 1e-6);
        assert!(n.dot(t.b - t.a).abs() < 1e-6);
    }
}
