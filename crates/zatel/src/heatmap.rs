//! Execution-time heatmap generation (paper step 1, Section III-B).
//!
//! Per-pixel runtimes are normalized by the longest runtime and mapped onto
//! a temperature colour using NVIDIA's heat gradient, where warmer colours
//! indicate lengthier ray-trace times.

use minijson::JsonError;
use rtcore::image::Image;
use rtcore::math::Vec3;
use rtcore::scene::Scene;
use rtcore::tracer::{profile_costs, CostMap, TraceConfig};

/// The NVIDIA shader-profiling heat gradient, approximated by five stops
/// from cold (dark blue) to hot (red).
const GRADIENT: [(f32, Vec3); 5] = [
    (
        0.00,
        Vec3 {
            x: 0.05,
            y: 0.05,
            z: 0.45,
        },
    ), // dark blue
    (
        0.25,
        Vec3 {
            x: 0.00,
            y: 0.55,
            z: 0.85,
        },
    ), // cyan-blue
    (
        0.50,
        Vec3 {
            x: 0.10,
            y: 0.80,
            z: 0.25,
        },
    ), // green
    (
        0.75,
        Vec3 {
            x: 0.95,
            y: 0.85,
            z: 0.10,
        },
    ), // yellow
    (
        1.00,
        Vec3 {
            x: 0.90,
            y: 0.10,
            z: 0.05,
        },
    ), // red
];

/// Maps a normalized temperature `t ∈ [0, 1]` to a heat-gradient colour.
pub fn heat_color(t: f32) -> Vec3 {
    let t = t.clamp(0.0, 1.0);
    for w in GRADIENT.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        if t <= t1 {
            let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            return c0.lerp(c1, f);
        }
    }
    GRADIENT[GRADIENT.len() - 1].1
}

/// Inverse of [`heat_color`] via the colour's hue: returns how *cool* the
/// colour is, in `[0, 1]` (0 = hot red, 1 = cold blue). This is the paper's
/// "shifted hue parameter" used for the `c_i` values of Eq. (1).
pub fn coolness_of(color: Vec3) -> f32 {
    let (r, g, b) = (color.x, color.y, color.z);
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let delta = max - min;
    if delta < 1e-6 {
        return 0.5; // Achromatic: neutral temperature.
    }
    let hue = if max == r {
        60.0 * (((g - b) / delta) % 6.0)
    } else if max == g {
        60.0 * ((b - r) / delta + 2.0)
    } else {
        60.0 * ((r - g) / delta + 4.0)
    };
    let hue = if hue < 0.0 { hue + 360.0 } else { hue };
    // The gradient spans red (0°, hot) to blue (~240°, cold).
    (hue / 240.0).clamp(0.0, 1.0)
}

/// A normalized execution-time heatmap of the image plane.
///
/// # Examples
///
/// ```
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use zatel::heatmap::Heatmap;
///
/// let scene = SceneId::Sprng.build(1);
/// let cfg = TraceConfig { samples_per_pixel: 1, max_bounces: 2, seed: 1 };
/// let hm = Heatmap::profile(&scene, 16, 16, &cfg);
/// assert_eq!(hm.width(), 16);
/// assert!(hm.value(8, 8) <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    width: u32,
    height: u32,
    /// Normalized temperatures in `[0, 1]`, row-major.
    values: Vec<f32>,
}

minijson::record! {
    Heatmap check(Heatmap::check_dims) {
        "width" => width,
        "height" => height,
        "values" => values,
    }
}

impl Heatmap {
    /// Builds a heatmap from raw per-pixel work counts, normalizing by the
    /// longest runtime.
    pub fn from_costs(costs: &CostMap) -> Self {
        let max = costs.max().max(1) as f32;
        let values = costs.values().iter().map(|&w| w as f32 / max).collect();
        Heatmap {
            width: costs.width(),
            height: costs.height(),
            values,
        }
    }

    /// Profiles `scene` with the functional tracer and builds the heatmap
    /// (the substitution for profiling on real GPU hardware; the paper
    /// notes both options yield comparable results). Only the first sample
    /// of one pixel of each vertical pair is traced, whatever
    /// `trace.samples_per_pixel` says ([`profile_costs`]), so every spp of
    /// one frame shares one heatmap.
    pub fn profile(scene: &Scene, width: u32, height: u32, trace: &TraceConfig) -> Self {
        Self::from_costs(&profile_costs(scene, width, height, trace))
    }

    /// A decoded heatmap (the on-disk artifact cache) holds one value per
    /// pixel.
    fn check_dims(&self) -> Result<(), JsonError> {
        if self.values.len() == (self.width as u64 * self.height as u64) as usize {
            Ok(())
        } else {
            Err(JsonError::conversion("Heatmap: one value per pixel"))
        }
    }

    /// Heatmap width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Heatmap height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Normalized temperature of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.values[(y * self.width + x) as usize]
    }

    /// All normalized temperatures, row-major.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Heat-gradient colour of pixel `(x, y)`.
    pub fn color(&self, x: u32, y: u32) -> Vec3 {
        heat_color(self.value(x, y))
    }

    /// Mean normalized temperature over the whole map.
    pub fn mean_temperature(&self) -> f32 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f32>() / self.values.len() as f32
    }

    /// Renders the heatmap to an [`Image`] for visual inspection
    /// (the paper's Figs. 4, 7, 12).
    pub fn to_image(&self) -> Image {
        let mut img = Image::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                // Square the colour to counteract the image writer's
                // gamma-2 tone map, keeping the gradient hues faithful.
                let c = self.color(x, y);
                img.set(x, y, c.hadamard(c));
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcore::scenes::SceneId;

    #[test]
    fn gradient_endpoints() {
        let cold = heat_color(0.0);
        let hot = heat_color(1.0);
        assert!(cold.z > cold.x, "cold end is blue");
        assert!(hot.x > hot.z, "hot end is red");
        // Out-of-range temperatures clamp.
        assert_eq!(heat_color(-1.0), cold);
        assert_eq!(heat_color(2.0), hot);
    }

    #[test]
    fn coolness_tracks_temperature_monotonically() {
        let mut last = f32::INFINITY;
        for i in 0..=10 {
            let t = i as f32 / 10.0;
            let c = coolness_of(heat_color(t));
            assert!(
                c <= last + 0.12,
                "coolness should roughly decrease with temperature (t={t}, c={c}, last={last})"
            );
            last = c;
        }
        assert!(coolness_of(heat_color(0.0)) > 0.8, "coldest colour ≈ 1");
        assert!(coolness_of(heat_color(1.0)) < 0.1, "hottest colour ≈ 0");
    }

    #[test]
    fn achromatic_coolness_is_neutral() {
        assert_eq!(coolness_of(Vec3::splat(0.5)), 0.5);
    }

    #[test]
    fn from_costs_normalizes_by_max() {
        let mut costs = rtcore::tracer::CostMap::new(2, 2);
        costs.set(0, 0, 10);
        costs.set(1, 0, 40);
        costs.set(0, 1, 20);
        costs.set(1, 1, 0);
        let hm = Heatmap::from_costs(&costs);
        assert_eq!(hm.value(1, 0), 1.0);
        assert_eq!(hm.value(0, 0), 0.25);
        assert_eq!(hm.value(1, 1), 0.0);
    }

    #[test]
    fn profile_produces_plausible_map() {
        let scene = SceneId::Bunny.build(1);
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 2,
        };
        let hm = Heatmap::profile(&scene, 24, 24, &cfg);
        assert!(hm.mean_temperature() > 0.05);
        assert!(hm.values().iter().copied().fold(0.0f32, f32::max) == 1.0);
        let img = hm.to_image();
        assert_eq!(img.width(), 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_out_of_bounds_panics() {
        let costs = rtcore::tracer::CostMap::new(2, 2);
        Heatmap::from_costs(&costs).value(2, 0);
    }
}
