//! Pinhole camera model.

use crate::math::{Pcg, Ray, Vec3};

/// A pinhole camera that maps image-plane pixels to primary rays.
///
/// # Examples
///
/// ```
/// use rtcore::camera::Camera;
/// use rtcore::math::{Pcg, Vec3};
///
/// let cam = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 60.0);
/// let mut rng = Pcg::new(1);
/// let ray = cam.primary_ray(32, 32, 64, 64, &mut rng);
/// assert!(ray.dir.z > 0.9); // Looking towards +Z.
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    origin: Vec3,
    lower_left: Vec3,
    horizontal: Vec3,
    vertical: Vec3,
}

impl Camera {
    /// Creates a camera at `eye` looking at `target`, with the given vertical
    /// field of view in degrees. The aspect ratio is fixed at 1:1 to match
    /// the square image planes used throughout the paper (512 × 512).
    ///
    /// # Panics
    ///
    /// Panics if `eye == target` or `vfov_degrees` is not in `(0, 180)`.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3, vfov_degrees: f32) -> Self {
        assert!(
            vfov_degrees > 0.0 && vfov_degrees < 180.0,
            "field of view must be in (0, 180), got {vfov_degrees}"
        );
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: degenerate camera geometry is a caller bug"
        )]
        let w = (eye - target)
            .try_normalized()
            .expect("camera eye and target must differ");
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: degenerate camera geometry is a caller bug"
        )]
        let u = up
            .cross(w)
            .try_normalized()
            .expect("up must not align with view direction");
        let v = w.cross(u);
        let half_height = (vfov_degrees.to_radians() / 2.0).tan();
        let half_width = half_height; // Square aspect.
        Camera {
            origin: eye,
            lower_left: eye - u * half_width - v * half_height - w,
            horizontal: u * (2.0 * half_width),
            vertical: v * (2.0 * half_height),
        }
    }

    /// Feeds the full camera basis into a content fingerprint. Fields are
    /// private, so the scene fingerprint delegates here.
    pub(crate) fn write_fingerprint(&self, h: &mut crate::fingerprint::Fnv64) {
        for v in [self.origin, self.lower_left, self.horizontal, self.vertical] {
            h.write_f32(v.x).write_f32(v.y).write_f32(v.z);
        }
    }

    /// Generates a primary ray through pixel `(x, y)` of a `width × height`
    /// image, jittered inside the pixel footprint by `rng` for antialiasing.
    /// Pixel `(0, 0)` is the top-left corner, matching image convention.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of bounds.
    pub fn primary_ray(&self, x: u32, y: u32, width: u32, height: u32, rng: &mut Pcg) -> Ray {
        debug_assert!(
            x < width && y < height,
            "pixel ({x},{y}) out of {width}x{height}"
        );
        let s = (x as f32 + rng.next_f32()) / width as f32;
        // Flip y so row 0 is the top of the image.
        let t = 1.0 - (y as f32 + rng.next_f32()) / height as f32;
        let dir =
            (self.lower_left + self.horizontal * s + self.vertical * t - self.origin).normalized();
        Ray::new(self.origin, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_pixel_looks_at_target() {
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 45.0);
        let mut rng = Pcg::new(0);
        let mut mean = Vec3::ZERO;
        for _ in 0..64 {
            mean += cam.primary_ray(50, 50, 101, 101, &mut rng).dir;
        }
        let mean = (mean / 64.0).normalized();
        assert!(mean.dot(Vec3::Z) > 0.999, "mean dir {mean:?}");
    }

    #[test]
    fn corners_diverge_with_fov() {
        let cam = Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y, 90.0);
        let mut rng = Pcg::new(1);
        let tl = cam.primary_ray(0, 0, 100, 100, &mut rng).dir;
        let br = cam.primary_ray(99, 99, 100, 100, &mut rng).dir;
        assert!(tl.dot(br) < 0.5, "90° fov corners should diverge");
        // Top-left pixel should look up (+Y) and left.
        assert!(tl.y > 0.0);
        assert!(br.y < 0.0);
    }

    #[test]
    fn rays_are_unit_length() {
        let cam = Camera::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::Y, 60.0);
        let mut rng = Pcg::new(2);
        for i in 0..100 {
            let r = cam.primary_ray(i % 10, i / 10, 10, 10, &mut rng);
            assert!((r.dir.length() - 1.0).abs() < 1e-5);
            assert_eq!(r.origin, Vec3::new(1.0, 2.0, 3.0));
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn degenerate_look_at_panics() {
        Camera::look_at(Vec3::ONE, Vec3::ONE, Vec3::Y, 60.0);
    }

    #[test]
    #[should_panic(expected = "field of view")]
    fn bad_fov_panics() {
        Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y, 200.0);
    }
}
