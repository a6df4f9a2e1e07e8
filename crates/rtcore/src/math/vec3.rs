//! Three-component `f32` vector used for points, directions and colours.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A three-component single-precision vector.
///
/// `Vec3` is used throughout the suite for points, directions, normals and
/// RGB radiance values. All operations are component-wise unless stated
/// otherwise.
///
/// # Examples
///
/// ```
/// use rtcore::math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::splat(2.0);
/// assert_eq!(a + b, Vec3::new(3.0, 4.0, 5.0));
/// assert_eq!(a.dot(b), 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

minijson::record! {
    Vec3 {
        "x" => x,
        "y" => y,
        "z" => z,
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// Unit vector along X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along Y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along Z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product of `self` and `rhs`.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product of `self` and `rhs` (right-handed).
    #[inline]
    pub(crate) fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (cheaper than [`Vec3::length`]).
    #[inline]
    pub fn length_squared(self) -> f32 {
        self.dot(self)
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vector has (near-)zero length.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        debug_assert!(len > 1e-12, "normalizing near-zero vector {self:?}");
        self / len
    }

    /// Returns the unit vector, or `None` if the length is below `1e-12`.
    #[inline]
    pub fn try_normalized(self) -> Option<Vec3> {
        let len = self.length();
        if len > 1e-12 {
            Some(self / len)
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// The largest of the three components.
    #[inline]
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Index of the component with the largest magnitude extent, used to pick
    /// BVH split axes (0 = x, 1 = y, 2 = z).
    #[inline]
    pub(crate) fn largest_axis(self) -> usize {
        if self.x >= self.y && self.x >= self.z {
            0
        } else if self.y >= self.z {
            1
        } else {
            2
        }
    }

    /// Linear interpolation between `self` (t = 0) and `rhs` (t = 1).
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f32) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Reflects `self` about the unit normal `n`.
    #[inline]
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self - n * (2.0 * self.dot(n))
    }

    /// Refracts `self` (unit incident direction) through the unit normal `n`
    /// with relative index of refraction `eta`. Returns `None` on total
    /// internal reflection.
    pub fn refract(self, n: Vec3, eta: f32) -> Option<Vec3> {
        let cos_i = (-self).dot(n).clamp(-1.0, 1.0);
        let sin2_t = eta * eta * (1.0 - cos_i * cos_i);
        if sin2_t > 1.0 {
            return None;
        }
        let cos_t = (1.0 - sin2_t).sqrt();
        Some(self * eta + n * (eta * cos_i - cos_t))
    }

    /// Component-wise multiplication (Hadamard product); used for filtering
    /// radiance through surface albedo.
    #[inline]
    pub fn hadamard(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Average of the three components; used as a scalar luminance proxy.
    #[inline]
    pub(crate) fn mean(self) -> f32 {
        (self.x + self.y + self.z) / 3.0
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f32> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f32) {
        *self = *self * rhs;
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f32> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f32) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;

    /// Accesses a component by axis index (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            #[expect(
                clippy::panic,
                reason = "std Index contract: out-of-bounds indexing panics exactly like slice indexing"
            )]
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_componentwise() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::ONE;
        v -= Vec3::new(0.5, 0.5, 0.5);
        v *= 4.0;
        v /= 2.0;
        assert_eq!(v, Vec3::splat(3.0));
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn length_and_normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(v.length_squared(), 25.0);
        let n = v.normalized();
        assert!((n.length() - 1.0).abs() < 1e-6);
        assert!(Vec3::ZERO.try_normalized().is_none());
    }

    #[test]
    fn min_max_and_axes() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 6.0));
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a.largest_axis(), 1);
        assert_eq!(Vec3::new(9.0, 1.0, 1.0).largest_axis(), 0);
        assert_eq!(Vec3::new(1.0, 1.0, 9.0).largest_axis(), 2);
    }

    #[test]
    fn reflect_flips_normal_component() {
        let d = Vec3::new(1.0, -1.0, 0.0).normalized();
        let r = d.reflect(Vec3::Y);
        assert!((r.x - d.x).abs() < 1e-6);
        assert!((r.y + d.y).abs() < 1e-6);
    }

    #[test]
    fn refract_straight_through_at_eta_one() {
        let d = Vec3::new(0.0, -1.0, 0.0);
        let t = d.refract(Vec3::Y, 1.0).expect("no TIR at eta=1");
        assert!((t - d).length() < 1e-6);
    }

    #[test]
    fn refract_total_internal_reflection() {
        // Grazing incidence from a dense medium: must be TIR.
        let d = Vec3::new(0.999, -0.0447, 0.0).normalized();
        assert!(d.refract(Vec3::Y, 1.5).is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::splat(2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::ONE);
    }

    #[test]
    fn index_matches_fields() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn conversions_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let a: [f32; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }
}
