//! Primitive sum type and hit records.

use crate::material::MaterialId;
use crate::math::{Aabb, Ray, Vec3};

use super::{Sphere, Triangle};

/// Index of a primitive within its scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrimitiveId(pub u32);

/// Any geometric primitive the BVH can enclose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Primitive {
    /// A triangle (the common case; meshes are triangle soups).
    Triangle(Triangle),
    /// An analytic sphere.
    Sphere(Sphere),
}

impl Primitive {
    /// Bounding box of the primitive.
    pub fn bounds(&self) -> Aabb {
        match self {
            Primitive::Triangle(t) => t.bounds(),
            Primitive::Sphere(s) => s.bounds(),
        }
    }

    /// Centroid used for BVH partitioning.
    pub(crate) fn centroid(&self) -> Vec3 {
        match self {
            Primitive::Triangle(t) => t.centroid(),
            Primitive::Sphere(s) => s.center,
        }
    }

    /// Material referenced by the primitive.
    pub fn material(&self) -> MaterialId {
        match self {
            Primitive::Triangle(t) => t.material,
            Primitive::Sphere(s) => s.material,
        }
    }

    /// Ray intersection within `[ray.t_min, ray.t_max]`.
    pub fn hit(&self, ray: &Ray) -> Option<f32> {
        match self {
            Primitive::Triangle(t) => t.hit(ray),
            Primitive::Sphere(s) => s.hit(ray),
        }
    }

    /// Shading normal at a surface point, oriented to face the incoming
    /// direction `incoming` (i.e. `normal · incoming < 0`).
    pub fn shading_normal(&self, point: Vec3, incoming: Vec3) -> Vec3 {
        let n = match self {
            Primitive::Triangle(t) => t.normal(),
            Primitive::Sphere(s) => s.normal_at(point),
        };
        if n.dot(incoming) > 0.0 {
            -n
        } else {
            n
        }
    }
}

impl From<Triangle> for Primitive {
    fn from(t: Triangle) -> Self {
        Primitive::Triangle(t)
    }
}

impl From<Sphere> for Primitive {
    fn from(s: Sphere) -> Self {
        Primitive::Sphere(s)
    }
}

/// A resolved ray/scene intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Parametric distance along the ray.
    pub t: f32,
    /// World-space hit point.
    pub point: Vec3,
    /// Shading normal, oriented against the incoming ray.
    pub normal: Vec3,
    /// Material of the primitive that was hit.
    pub material: MaterialId,
    /// Which primitive was hit.
    pub primitive: PrimitiveId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_type_dispatches_bounds_and_hit() {
        let s: Primitive = Sphere::new(Vec3::ZERO, 1.0, MaterialId(1)).into();
        let t: Primitive = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y, MaterialId(2)).into();
        assert_eq!(s.material(), MaterialId(1));
        assert_eq!(t.material(), MaterialId(2));
        let r = Ray::new(Vec3::new(0.0, 0.0, -3.0), Vec3::Z);
        assert!(s.hit(&r).is_some());
        assert!(s.bounds().contains_point(Vec3::ZERO));
        assert!(t.bounds().contains_point(Vec3::X));
    }

    #[test]
    fn shading_normal_faces_incoming_ray() {
        let s: Primitive = Sphere::new(Vec3::ZERO, 1.0, MaterialId(0)).into();
        let p = Vec3::new(0.0, 0.0, -1.0);
        // Ray travelling +Z hits the front; normal should face -Z.
        let n = s.shading_normal(p, Vec3::Z);
        assert!(n.dot(Vec3::Z) < 0.0);
        // Ray travelling -Z from inside; normal flips.
        let n2 = s.shading_normal(p, -Vec3::Z);
        assert!(n2.dot(-Vec3::Z) < 0.0);
    }

    #[test]
    fn centroid_matches_primitive_kind() {
        let s: Primitive = Sphere::new(Vec3::splat(2.0), 1.0, MaterialId(0)).into();
        assert_eq!(s.centroid(), Vec3::splat(2.0));
        let t: Primitive =
            Triangle::new(Vec3::ZERO, Vec3::splat(3.0), Vec3::ZERO, MaterialId(0)).into();
        assert_eq!(t.centroid(), Vec3::ONE);
    }
}
