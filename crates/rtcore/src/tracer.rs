//! Functional path tracer.
//!
//! This is the "functional mode" of the simulated GPU: it computes the same
//! per-pixel radiance and — more importantly for Zatel — the same per-pixel
//! *work counts* that the timing model executes: its queries run the same
//! BVH traversal loop the timing model records its ops from, with the
//! counting sink ([`TraversalStats`]) in place of the recording one.

use crate::bvh::TraversalStats;
use crate::image::Image;
use crate::material::Surface;
use crate::math::{cosine_hemisphere, Pcg, Ray, Vec3, RAY_EPSILON};
use crate::scene::Scene;

/// Rendering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Samples per pixel. The paper evaluates at 2 spp.
    pub samples_per_pixel: u32,
    /// Maximum secondary-ray bounces per path.
    pub max_bounces: u32,
    /// Base RNG seed; per-pixel streams are derived deterministically.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            samples_per_pixel: 2,
            max_bounces: 4,
            seed: 0x5A7E1,
        }
    }
}

minijson::record! {
    TraceConfig {
        "samples_per_pixel" => samples_per_pixel,
        "max_bounces" => max_bounces,
        "seed" => seed,
    }
}

/// Result of tracing a single pixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelTrace {
    /// Average radiance over all samples.
    pub color: Vec3,
    /// Accumulated traversal statistics over all rays of all samples.
    pub stats: TraversalStats,
    /// Total rays cast (primary + shadow + bounce).
    pub rays: u32,
}

/// Per-pixel work counts for a full frame; the raw input of Zatel's
/// execution-time heatmap.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMap {
    width: u32,
    height: u32,
    work: Vec<u64>,
}

impl CostMap {
    /// Creates an all-zero cost map.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(
            width > 0 && height > 0,
            "cost map dimensions must be positive"
        );
        CostMap {
            width,
            height,
            work: vec![0; (width * height) as usize],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Work units for pixel `(x, y)`.
    pub fn get(&self, x: u32, y: u32) -> u64 {
        self.work[(y * self.width + x) as usize]
    }

    /// Sets work units for pixel `(x, y)`.
    pub fn set(&mut self, x: u32, y: u32, w: u64) {
        self.work[(y * self.width + x) as usize] = w;
    }

    /// Raw work values in row-major order.
    pub fn values(&self) -> &[u64] {
        &self.work
    }

    /// Largest per-pixel work value.
    pub fn max(&self) -> u64 {
        self.work.iter().copied().max().unwrap_or(0)
    }
}

/// Traces one pixel of the image plane.
///
/// The per-pixel RNG stream depends only on `(config.seed, x, y)`, so the
/// same pixel always traces identically regardless of which other pixels are
/// traced — the property Zatel's pixel filtering relies on.
pub fn trace_pixel(
    scene: &Scene,
    x: u32,
    y: u32,
    width: u32,
    height: u32,
    config: &TraceConfig,
) -> PixelTrace {
    let mut rng = Pcg::for_index(config.seed, (y as u64) * (width as u64) + x as u64);
    let mut color = Vec3::ZERO;
    let mut stats = TraversalStats::default();
    let mut rays = 0u32;

    for _ in 0..config.samples_per_pixel.max(1) {
        let ray = scene.camera().primary_ray(x, y, width, height, &mut rng);
        let (sample, sample_stats, sample_rays) =
            trace_path(scene, ray, config.max_bounces, &mut rng);
        color += sample;
        stats.accumulate(&sample_stats);
        rays += sample_rays;
    }

    PixelTrace {
        color: color / config.samples_per_pixel.max(1) as f32,
        stats,
        rays,
    }
}

/// Traces a full path starting at `ray`, returning (radiance, stats, rays).
fn trace_path(
    scene: &Scene,
    mut ray: Ray,
    max_bounces: u32,
    rng: &mut Pcg,
) -> (Vec3, TraversalStats, u32) {
    let mut stats = TraversalStats::default();
    let mut throughput = Vec3::ONE;
    let mut radiance = Vec3::ZERO;
    let mut rays = 0u32;

    for _bounce in 0..=max_bounces {
        rays += 1;
        let (hit, tstats) = scene.bvh().intersect(&ray, scene.primitives());
        stats.accumulate(&tstats);

        let Some(hit) = hit else {
            radiance += throughput.hadamard(sky_color(ray.dir));
            break;
        };

        let material = *scene.material(hit.material);
        match material.surface {
            Surface::Emissive => {
                radiance += throughput.hadamard(material.color);
                break;
            }
            Surface::Diffuse => {
                // Next-event estimation: shadow ray towards one light.
                if !scene.lights().is_empty() {
                    let light = scene.lights()[rng.next_below(scene.lights().len())];
                    let to_light = light.position - hit.point;
                    let dist = to_light.length();
                    if dist > RAY_EPSILON {
                        let dir = to_light / dist;
                        let cos = hit.normal.dot(dir);
                        if cos > 0.0 {
                            rays += 1;
                            let shadow = Ray::segment(
                                hit.point + hit.normal * RAY_EPSILON,
                                dir,
                                dist - 2.0 * RAY_EPSILON,
                            );
                            let (occluded, sstats) =
                                scene.bvh().occluded(&shadow, scene.primitives());
                            stats.accumulate(&sstats);
                            if !occluded {
                                let falloff = 1.0 / (dist * dist).max(1e-3);
                                let nlights = scene.lights().len() as f32;
                                radiance += throughput
                                    .hadamard(material.color)
                                    .hadamard(light.intensity)
                                    * (cos * falloff * nlights / std::f32::consts::PI);
                            }
                        }
                    }
                }
                throughput = throughput.hadamard(material.color);
                let dir = cosine_hemisphere(hit.normal, rng);
                ray = Ray::new(hit.point + hit.normal * RAY_EPSILON, dir);
            }
            Surface::Mirror { fuzz } => {
                throughput = throughput.hadamard(material.color);
                let mut dir = ray.dir.reflect(hit.normal);
                if fuzz > 0.0 {
                    dir = (dir + crate::math::uniform_sphere(rng) * fuzz)
                        .try_normalized()
                        .unwrap_or(dir);
                }
                if dir.dot(hit.normal) <= 0.0 {
                    break; // Fuzz scattered the ray below the surface.
                }
                ray = Ray::new(hit.point + hit.normal * RAY_EPSILON, dir);
            }
            Surface::Glass { ior } => {
                let entering = ray.dir.dot(hit.normal) < 0.0;
                debug_assert!(entering, "shading normal should oppose the ray");
                let eta = 1.0 / ior;
                let cos_i = (-ray.dir).dot(hit.normal).clamp(0.0, 1.0);
                let reflect_prob = schlick(cos_i, ior);
                let dir = if rng.next_f32() < reflect_prob {
                    ray.dir.reflect(hit.normal)
                } else {
                    match ray.dir.refract(hit.normal, eta) {
                        Some(t) => t,
                        None => ray.dir.reflect(hit.normal),
                    }
                };
                let offset = if dir.dot(hit.normal) < 0.0 {
                    -hit.normal
                } else {
                    hit.normal
                };
                ray = Ray::new(hit.point + offset * RAY_EPSILON, dir.normalized());
            }
        }

        // Paths whose throughput collapsed cannot contribute; terminate the
        // same way regardless of RNG state to stay deterministic.
        if throughput.max_component() < 1e-4 {
            break;
        }
    }

    (radiance, stats, rays)
}

/// Schlick's approximation of the Fresnel reflectance.
fn schlick(cos: f32, ior: f32) -> f32 {
    let r0 = ((1.0 - ior) / (1.0 + ior)).powi(2);
    r0 + (1.0 - r0) * (1.0 - cos).powi(5)
}

/// Background radiance: a simple vertical sky gradient.
fn sky_color(dir: Vec3) -> Vec3 {
    let t = 0.5 * (dir.y + 1.0);
    Vec3::new(1.0, 1.0, 1.0).lerp(Vec3::new(0.35, 0.55, 0.95), t) * 0.6
}

/// Renders the full frame, producing the image and the per-pixel cost map.
pub fn render(scene: &Scene, width: u32, height: u32, config: &TraceConfig) -> (Image, CostMap) {
    let mut image = Image::new(width, height);
    let mut costs = CostMap::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let px = trace_pixel(scene, x, y, width, height, config);
            image.set(x, y, px.color);
            costs.set(x, y, px.stats.work());
        }
    }
    (image, costs)
}

/// Profiles only the per-pixel cost map (no image), which is how Zatel
/// obtains its heatmap (paper step 1).
pub fn profile_costs(scene: &Scene, width: u32, height: u32, config: &TraceConfig) -> CostMap {
    let mut costs = CostMap::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let px = trace_pixel(scene, x, y, width, height, config);
            costs.set(x, y, px.stats.work());
        }
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::material::Material;
    use crate::scene::SceneBuilder;
    use minijson::{FromJson, Value};

    #[test]
    fn trace_config_json_rejects_malformed_counts() {
        for (field, bad) in [
            ("samples_per_pixel", "4294967297"),
            ("max_bounces", "4294967296"),
            ("max_bounces", "-1"),
            ("seed", "\"7\""),
        ] {
            let doc =
                format!(r#"{{"samples_per_pixel":1,"max_bounces":2,"seed":7,"{field}":{bad}}}"#);
            let err = TraceConfig::from_json(&Value::parse(&doc).unwrap());
            assert!(err.is_err(), "{field}={bad} accepted as {err:?}");
        }
    }

    fn test_scene() -> Scene {
        let cam = Camera::look_at(
            Vec3::new(0.0, 1.0, -6.0),
            Vec3::new(0.0, 0.5, 0.0),
            Vec3::Y,
            55.0,
        );
        let mut b = SceneBuilder::new("test", cam);
        let gray = b.add_material(Material::diffuse(Vec3::splat(0.7)));
        let mirror = b.add_material(Material::mirror(Vec3::splat(0.9), 0.0));
        let mut rng = Pcg::new(1);
        b.add_mesh(crate::geom::mesh::heightfield(
            Vec3::ZERO,
            30.0,
            30.0,
            4,
            4,
            0.0,
            gray,
            &mut rng,
        ));
        b.add_sphere(Vec3::new(0.0, 1.0, 0.0), 1.0, mirror);
        b.add_light(Vec3::new(5.0, 8.0, -5.0), Vec3::splat(120.0));
        b.build()
    }

    #[test]
    fn pixels_are_deterministic() {
        let scene = test_scene();
        let cfg = TraceConfig::default();
        let a = trace_pixel(&scene, 10, 12, 32, 32, &cfg);
        let b = trace_pixel(&scene, 10, 12, 32, 32, &cfg);
        assert_eq!(a.color, b.color);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rays, b.rays);
    }

    #[test]
    fn pixel_independent_of_neighbours() {
        // Tracing pixel (5,5) alone must equal tracing it as part of a frame.
        let scene = test_scene();
        let cfg = TraceConfig::default();
        let alone = trace_pixel(&scene, 5, 5, 16, 16, &cfg);
        let (img, _) = render(&scene, 16, 16, &cfg);
        assert_eq!(img.get(5, 5), alone.color);
    }

    #[test]
    fn render_produces_nonblack_image() {
        let scene = test_scene();
        let (img, costs) = render(&scene, 16, 16, &TraceConfig::default());
        assert!(img.mean_luminance() > 0.01, "image should catch light");
        assert!(costs.max() > 0, "tracing must cost something");
    }

    #[test]
    fn sphere_pixels_cost_more_than_sky() {
        let scene = test_scene();
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 7,
        };
        let costs = profile_costs(&scene, 32, 32, &cfg);
        // Center pixels hit the mirror sphere (bounces); top corners mostly sky.
        let center = costs.get(16, 14);
        let corner = costs.get(0, 0);
        assert!(
            center > corner,
            "center {center} should out-cost corner {corner}"
        );
    }

    #[test]
    fn ray_counts_bounded_by_config() {
        let scene = test_scene();
        let cfg = TraceConfig {
            samples_per_pixel: 2,
            max_bounces: 3,
            seed: 1,
        };
        let px = trace_pixel(&scene, 16, 16, 32, 32, &cfg);
        // Per sample: at most (max_bounces+1) path rays + one shadow ray per bounce.
        let per_sample_max = (cfg.max_bounces + 1) * 2;
        assert!(px.rays <= cfg.samples_per_pixel * per_sample_max);
        assert!(px.rays >= cfg.samples_per_pixel);
    }

    #[test]
    fn emissive_hit_terminates_path() {
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, -4.0), Vec3::ZERO, Vec3::Y, 45.0);
        let mut b = SceneBuilder::new("em", cam);
        let light = b.add_material(Material::emissive(Vec3::splat(5.0)));
        b.add_sphere(Vec3::ZERO, 1.0, light);
        let scene = b.build();
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 8,
            seed: 3,
        };
        let px = trace_pixel(&scene, 8, 8, 16, 16, &cfg);
        assert_eq!(px.rays, 1, "emissive hit must not spawn secondaries");
        assert!(px.color.mean() > 1.0);
    }
}
