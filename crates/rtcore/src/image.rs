//! Simple RGB framebuffer with binary-PPM export.

use std::io::{self, Write};
use std::path::Path;

use crate::math::Vec3;

/// An RGB image with `f32` radiance values per channel.
///
/// # Examples
///
/// ```
/// use rtcore::image::Image;
/// use rtcore::math::Vec3;
///
/// let mut img = Image::new(4, 4);
/// img.set(1, 2, Vec3::new(1.0, 0.0, 0.0));
/// assert_eq!(img.get(1, 2).x, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<Vec3>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![Vec3::ZERO; (width * height) as usize],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        self.pixels[self.index(x, y)]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: u32, y: u32, color: Vec3) {
        let i = self.index(x, y);
        self.pixels[i] = color;
    }

    fn index(&self, x: u32, y: u32) -> usize {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        (y * self.width + x) as usize
    }

    /// Encodes as binary PPM (P6) with gamma-2 tone mapping.
    pub(crate) fn write_ppm<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width as usize * 3);
        for y in 0..self.height {
            row.clear();
            for x in 0..self.width {
                let c = self.get(x, y);
                for ch in [c.x, c.y, c.z] {
                    let v = ch.max(0.0).sqrt().min(1.0); // gamma 2
                    row.push((v * 255.0 + 0.5) as u8);
                }
            }
            out.write_all(&row)?;
        }
        Ok(())
    }

    /// Writes the image to a `.ppm` file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save_ppm<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.write_ppm(io::BufWriter::new(f))
    }

    /// Mean luminance over all pixels; handy for smoke tests.
    pub fn mean_luminance(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p.mean()).sum::<f32>() / self.pixels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_black() {
        let img = Image::new(3, 2);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert!((0..2).all(|y| (0..3).all(|x| img.get(x, y) == Vec3::ZERO)));
        assert_eq!(img.mean_luminance(), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(4, 4);
        img.set(3, 3, Vec3::ONE);
        assert_eq!(img.get(3, 3), Vec3::ONE);
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Image::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_size_panics() {
        Image::new(0, 4);
    }

    #[test]
    fn ppm_header_and_size() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, Vec3::ONE);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(buf.len(), b"P6\n2 2\n255\n".len() + 2 * 2 * 3);
        // First pixel is white after tone map.
        let body = &buf[b"P6\n2 2\n255\n".len()..];
        assert_eq!(&body[0..3], &[255, 255, 255]);
    }

    #[test]
    fn ppm_clamps_out_of_range() {
        let mut img = Image::new(1, 1);
        img.set(0, 0, Vec3::new(9.0, -1.0, 0.25));
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        let body = &buf[b"P6\n1 1\n255\n".len()..];
        assert_eq!(body[0], 255);
        assert_eq!(body[1], 0);
        assert_eq!(body[2], 128); // sqrt(0.25) = 0.5
    }
}
