//! Functional path tracer.
//!
//! The "functional mode" of the simulated GPU, and the control flow its
//! timing model executes: one path state machine, [`PixelPath`], traces a
//! pixel's samples a ray at a time through the BVH's one traversal loop and
//! reports every visit and shading event to a [`PathSink`]. The profiler's
//! sink counts ([`PixelTrace`], whose work is the heatmap); a timing-model
//! thread (`zatel-rtworkload`) records ops.

use crate::bvh::{TraversalStats, VisitSink};
use crate::image::Image;
use crate::material::{Material, MaterialId, Surface};
use crate::math::{cosine_hemisphere, uniform_sphere, Pcg, Ray, Vec3, RAY_EPSILON};
use crate::scene::Scene;

/// The bounce depth of [`TraceConfig::default`], which every prediction
/// traces.
pub const MAX_BOUNCES: u32 = 4;

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

impl TraceConfig {
    /// The configuration [`profile_costs`] traces: this one cut to each
    /// pixel's first sample. A pixel's first sample is the start of its own
    /// RNG stream, so it does the same work here as in a path of every
    /// sample; what `samples_per_pixel` adds after it, the heatmap does not
    /// see.
    pub fn profiled(&self) -> TraceConfig {
        TraceConfig {
            samples_per_pixel: 1,
            ..*self
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            samples_per_pixel: 2,
            max_bounces: MAX_BOUNCES,
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PixelTrace {
    /// Average radiance over all samples.
    pub color: Vec3,
    /// Accumulated traversal statistics over all rays of all samples.
    pub stats: TraversalStats,
    /// Total rays cast (primary + shadow + bounce).
    pub rays: u32,
}

/// Per-pixel work counts for a full frame, the first sample of one pixel of
/// each vertical pair (see [`profile_costs`]); the raw input of Zatel's
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

    /// Sets work units for pixel `(x, y)`; panics if out of bounds.
    pub fn set(&mut self, x: u32, y: u32, w: u64) {
        let i = self.index(x, y);
        self.work[i] = w;
    }

    fn index(&self, x: u32, y: u32) -> usize {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        (y * self.width + x) as usize
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

/// What a [`PixelPath`] reports: every BVH visit (the [`VisitSink`] half)
/// and the shading events around them, each a no-op by default.
pub trait PathSink: VisitSink {
    /// A sample's camera ray was generated; it is traced next.
    fn camera_ray(&mut self) {}
    /// A camera or bounce ray left the scene, ending its path.
    fn miss(&mut self) {}
    /// A camera or bounce ray hit a surface of material `id`, which is
    /// shaded next.
    fn hit(&mut self, _id: MaterialId, _material: &Material) {}
    /// A diffuse hit cast a shadow ray towards a light; it is traced next.
    fn shadow_ray(&mut self) {}
    /// A sample's path ended, having gathered `radiance`.
    fn sample_done(&mut self, _radiance: Vec3) {}
}

/// The counting sink: each query is one ray, and its visits and the
/// radiance of each finished sample add up to the pixel's trace.
impl VisitSink for PixelTrace {
    fn root(&mut self) {
        self.rays += 1;
        self.stats.root();
    }

    fn interior(&mut self, node: u32) {
        self.stats.interior(node);
    }

    fn leaf(&mut self, node: u32) {
        self.stats.leaf(node);
    }

    fn prim(&mut self, prim: u32) {
        self.stats.prim(prim);
    }
}

impl PathSink for PixelTrace {
    fn sample_done(&mut self, radiance: Vec3) {
        self.color += radiance;
    }
}

/// One pixel's samples as a resumable state machine: each
/// [`PixelPath::step`] traces one ray and resolves it. Its RNG stream
/// depends only on `(config.seed, x, y)`, so a pixel traces identically
/// whichever other pixels are traced — what pixel filtering relies on.
#[derive(Debug, Clone)]
pub struct PixelPath {
    rng: Pcg,
    x: u32,
    y: u32,
    width: u32,
    height: u32,
    /// Samples not yet started.
    samples_left: u32,
    max_bounces: u32,
    /// The path in flight's throughput and gathered radiance.
    throughput: Vec3,
    radiance: Vec3,
    next: NextRay,
}

/// What a [`PixelPath`] traces next.
#[derive(Debug, Clone, Copy)]
enum NextRay {
    /// The next sample's camera ray, if a sample is left.
    Camera,
    /// A bounce ray, `bounce` bounces into its path.
    Path { ray: Ray, bounce: u32 },
    /// The shadow ray of a diffuse hit: `light` is added if nothing
    /// occludes it, then the path bounces off the ray's origin.
    Shadow {
        ray: Ray,
        normal: Vec3,
        bounce: u32,
        light: Vec3,
    },
}

impl PixelPath {
    /// The machine of pixel `(x, y)` of a `width × height` frame, before its
    /// first ray.
    #[inline]
    pub fn new(x: u32, y: u32, width: u32, height: u32, config: &TraceConfig) -> Self {
        PixelPath {
            rng: Pcg::for_index(config.seed, (y as u64) * (width as u64) + x as u64),
            x,
            y,
            width,
            height,
            samples_left: config.samples_per_pixel.max(1),
            max_bounces: config.max_bounces,
            throughput: Vec3::ONE,
            radiance: Vec3::ZERO,
            next: NextRay::Camera,
        }
    }

    /// Traces the next ray into `sink` and resolves it; `false`, tracing
    /// nothing, once the last sample has finished. The sink moves through
    /// the traversal loop by value, so the counting sink's fields stay in
    /// registers; pass `&mut` a sink that should stay put.
    #[inline(always)]
    pub fn step<S: PathSink>(&mut self, scene: &Scene, mut sink: S) -> (bool, S) {
        let (ray, bounce) = match self.next {
            NextRay::Camera if self.samples_left == 0 => return (false, sink),
            NextRay::Camera => {
                self.samples_left -= 1;
                sink.camera_ray();
                let camera = scene.camera();
                let ray =
                    camera.primary_ray(self.x, self.y, self.width, self.height, &mut self.rng);
                (ray, 0)
            }
            NextRay::Path { ray, bounce } => (ray, bounce),
            NextRay::Shadow {
                ray,
                normal,
                bounce,
                light,
            } => {
                // Early-out once occlusion is proven.
                let (occluder, mut sink) = scene.bvh().query(&ray, scene.primitives(), true, sink);
                if occluder.is_none() {
                    self.radiance += light;
                }
                self.bounce_diffuse(ray.origin, normal, bounce, &mut sink);
                return (true, sink);
            }
        };
        (true, self.trace(scene, ray, bounce, sink))
    }

    /// Traces a camera or bounce ray and resolves its closest hit.
    #[inline(always)]
    fn trace<S: PathSink>(&mut self, scene: &Scene, ray: Ray, bounce: u32, sink: S) -> S {
        let (hit, mut sink) = scene.bvh().closest(&ray, scene.primitives(), sink);
        let Some(hit) = hit else {
            sink.miss();
            self.radiance += self.throughput.hadamard(sky_color(ray.dir));
            self.end_path(&mut sink);
            return sink;
        };
        let material = *scene.material(hit.material);
        sink.hit(hit.material, &material);
        let origin = hit.point + hit.normal * RAY_EPSILON;
        match material.surface {
            Surface::Emissive => {
                self.radiance += self.throughput.hadamard(material.color);
                self.end_path(&mut sink);
            }
            Surface::Diffuse => {
                // Next-event estimation: a shadow ray towards one light. Its
                // contribution is taken at this throughput and added once the
                // shadow ray proves unoccluded.
                let mut shadow = None;
                if !scene.lights().is_empty() {
                    let light = scene.lights()[self.rng.next_below(scene.lights().len())];
                    let to_light = light.position - hit.point;
                    let dist = to_light.length();
                    if dist > RAY_EPSILON {
                        let dir = to_light / dist;
                        let cos = hit.normal.dot(dir);
                        if cos > 0.0 {
                            sink.shadow_ray();
                            let falloff = 1.0 / (dist * dist).max(1e-3);
                            let nlights = scene.lights().len() as f32;
                            let light = self
                                .throughput
                                .hadamard(material.color)
                                .hadamard(light.intensity)
                                * (cos * falloff * nlights / std::f32::consts::PI);
                            let ray = Ray::segment(origin, dir, dist - 2.0 * RAY_EPSILON);
                            shadow = Some((ray, light));
                        }
                    }
                }
                self.throughput = self.throughput.hadamard(material.color);
                match shadow {
                    Some((ray, light)) => {
                        let normal = hit.normal;
                        self.next = NextRay::Shadow {
                            ray,
                            normal,
                            bounce,
                            light,
                        };
                    }
                    None => self.bounce_diffuse(origin, hit.normal, bounce, &mut sink),
                }
            }
            Surface::Mirror { fuzz } => {
                self.throughput = self.throughput.hadamard(material.color);
                let mut dir = ray.dir.reflect(hit.normal);
                if fuzz > 0.0 {
                    dir = (dir + uniform_sphere(&mut self.rng) * fuzz)
                        .try_normalized()
                        .unwrap_or(dir);
                }
                if dir.dot(hit.normal) <= 0.0 {
                    // Fuzz scattered the ray below the surface.
                    self.end_path(&mut sink);
                } else {
                    self.bounce(Ray::new(origin, dir), bounce, &mut sink);
                }
            }
            Surface::Glass { ior } => {
                let entering = ray.dir.dot(hit.normal) < 0.0;
                debug_assert!(entering, "shading normal should oppose the ray");
                let eta = 1.0 / ior;
                let cos_i = (-ray.dir).dot(hit.normal).clamp(0.0, 1.0);
                let reflect_prob = schlick(cos_i, ior);
                let dir = if self.rng.next_f32() < reflect_prob {
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
                let ray = Ray::new(hit.point + offset * RAY_EPSILON, dir.normalized());
                self.bounce(ray, bounce, &mut sink);
            }
        }
        sink
    }

    /// Finishes a diffuse hit: a cosine-weighted bounce from `origin`.
    fn bounce_diffuse(
        &mut self,
        origin: Vec3,
        normal: Vec3,
        bounce: u32,
        sink: &mut impl PathSink,
    ) {
        let dir = cosine_hemisphere(normal, &mut self.rng);
        self.bounce(Ray::new(origin, dir), bounce, sink);
    }

    /// Continues the path with `ray` unless it has used its last bounce or
    /// its throughput collapsed (a rule that draws nothing from the RNG, so
    /// termination stays deterministic).
    fn bounce(&mut self, ray: Ray, bounce: u32, sink: &mut impl PathSink) {
        if self.throughput.max_component() < 1e-4 || bounce >= self.max_bounces {
            self.end_path(sink);
        } else {
            let bounce = bounce + 1;
            self.next = NextRay::Path { ray, bounce };
        }
    }

    /// Ends the path in flight; the next step starts the next sample.
    fn end_path(&mut self, sink: &mut impl PathSink) {
        sink.sample_done(std::mem::take(&mut self.radiance));
        self.throughput = Vec3::ONE;
        self.next = NextRay::Camera;
    }
}

/// Traces one pixel of the image plane: steps its [`PixelPath`] with the
/// counting sink until the last sample has finished.
pub fn trace_pixel(
    scene: &Scene,
    x: u32,
    y: u32,
    width: u32,
    height: u32,
    config: &TraceConfig,
) -> PixelTrace {
    let mut path = PixelPath::new(x, y, width, height, config);
    let (mut tracing, mut trace) = (true, PixelTrace::default());
    while tracing {
        (tracing, trace) = path.step(scene, trace);
    }
    trace.color /= config.samples_per_pixel.max(1) as f32;
    trace
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

/// Renders the full frame at every sample of `config`.
pub fn render(scene: &Scene, width: u32, height: u32, config: &TraceConfig) -> Image {
    let mut image = Image::new(width, height);
    for y in 0..height {
        for x in 0..width {
            image.set(x, y, trace_pixel(scene, x, y, width, height, config).color);
        }
    }
    image
}

/// Profiles the per-pixel cost map (no image), which is how Zatel obtains
/// its heatmap (paper step 1): the work of each pixel's first sample,
/// whatever `config.samples_per_pixel` says ([`TraceConfig::profiled`]),
/// traced for one pixel of each vertical pair. The paper reads the heatmap
/// off a hardware profile that costs almost nothing and uses only its
/// relative shape, so the profile traces a quarter of a 2-spp frame:
///
/// - rows `2k` and `2k + 1` form a pair, the two rows of every 32×2
///   selection block;
/// - of each pair's two pixels in column `x`, the one with `x + y` even is
///   traced (a checkerboard), and its partner holds the same value;
/// - the last row of an odd height has no partner and is traced in full.
///
/// Each traced value is the work that pixel's first sample does in a
/// simulation at any spp.
pub fn profile_costs(scene: &Scene, width: u32, height: u32, config: &TraceConfig) -> CostMap {
    let mut costs = CostMap::new(width, height);
    profile_band(scene, width, height, &config.profiled(), 0, &mut costs.work);
    costs
}

/// Row bands [`profile_costs_lent`] splits a frame into, at most.
const PROFILE_BANDS: u32 = 16;

/// [`profile_costs`] with a lent thread: the same map, bit for bit,
/// profiled in row bands on the calling thread and, when `lend` starts one,
/// a spare thread (`lend` as in [`crate::bvh::Bvh::build_lent`]).
///
/// Bands start at even rows, so each holds whole row pairs and the
/// checkerboard is the one pass's; the last band takes the unpaired last
/// row of an odd height. Each pixel's trace draws from its own
/// `Pcg::for_index` stream, so a value does not depend on which thread
/// traced it or when.
///
/// # Panics
///
/// Re-raises a panic of the helper, through `lend`.
pub fn profile_costs_lent(
    scene: &Scene,
    width: u32,
    height: u32,
    config: &TraceConfig,
    lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
) -> CostMap {
    let config = config.profiled();
    let mut costs = CostMap::new(width, height);
    let band_rows = 2 * (height / 2).div_ceil(PROFILE_BANDS).max(1);
    let bands: Vec<(u32, &mut [u64])> = (0..)
        .step_by(band_rows as usize)
        .zip(costs.work.chunks_mut((band_rows * width) as usize))
        .collect();
    crate::lend::share(
        bands,
        |(y, work)| profile_band(scene, width, height, &config, y, work),
        lend,
    );
    costs
}

/// Profiles the rows from `y`, an even row, whose values `work` holds: whole
/// row pairs, and the frame's unpaired last row if `work` ends with it.
fn profile_band(
    scene: &Scene,
    width: u32,
    height: u32,
    config: &TraceConfig,
    y: u32,
    work: &mut [u64],
) {
    let traced = |x, y| trace_pixel(scene, x, y, width, height, config).stats.work();
    let row = width as usize;
    for (y, rows) in (y..).step_by(2).zip(work.chunks_mut(2 * row)) {
        if rows.len() == 2 * row {
            let (upper, lower) = rows.split_at_mut(row);
            for (x, (upper, lower)) in (0..).zip(upper.iter_mut().zip(lower)) {
                let w = traced(x, y + x % 2);
                (*upper, *lower) = (w, w);
            }
        } else {
            for (x, value) in (0..).zip(rows) {
                *value = traced(x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::scene::SceneBuilder;
    use crate::scenes::SceneId;
    use minijson::{FromJson, Value};
    use proptest::prelude::*;

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
        let img = render(&scene, 16, 16, &cfg);
        assert_eq!(img.get(5, 5), alone.color);
    }

    #[test]
    fn render_produces_nonblack_image() {
        let scene = test_scene();
        let img = render(&scene, 16, 16, &TraceConfig::default());
        let costs = profile_costs(&scene, 16, 16, &TraceConfig::default());
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
        let center = costs.values()[14 * 32 + 16];
        let corner = costs.values()[0];
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
        let light = b.add_material(Material {
            surface: Surface::Emissive,
            color: Vec3::splat(5.0),
        });
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

    /// Counts a path's visits and keeps the work done when its first
    /// sample finished.
    #[derive(Default)]
    struct FirstSample {
        stats: TraversalStats,
        first: Option<u64>,
    }

    impl VisitSink for FirstSample {
        fn root(&mut self) {
            self.stats.root();
        }
        fn interior(&mut self, node: u32) {
            self.stats.interior(node);
        }
        fn leaf(&mut self, node: u32) {
            self.stats.leaf(node);
        }
        fn prim(&mut self, prim: u32) {
            self.stats.prim(prim);
        }
    }

    impl PathSink for FirstSample {
        fn sample_done(&mut self, _radiance: Vec3) {
            self.first.get_or_insert(self.stats.work());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The profile traces one pixel of each vertical pair at any spp,
        /// on any size (odd ones too): it equals the 1-spp profile; each
        /// traced pixel (`x + y` even, or the last row of an odd height)
        /// holds its 1-spp `trace_pixel` work and the work a path of every
        /// sample has done when its first sample finishes; its partner in
        /// the pair holds the same value.
        #[test]
        fn the_profile_is_each_pixels_first_sample(
            scene in 0..SceneId::ALL.len() + 1,
            spp in 1u32..5,
            max_bounces in 0u32..5,
            seed in any::<u64>(),
            width in 1u32..11,
            height in 1u32..11,
        ) {
            let scene = match SceneId::ALL.get(scene) {
                Some(id) => id.build(1),
                None => test_scene(),
            };
            let cfg = TraceConfig { samples_per_pixel: spp, max_bounces, seed };
            let one = TraceConfig { samples_per_pixel: 1, ..cfg };
            let costs = profile_costs(&scene, width, height, &cfg);
            prop_assert_eq!(&costs, &profile_costs(&scene, width, height, &one));
            let at = |x: u32, y: u32| costs.values()[(y * width + x) as usize];
            for y in 0..height {
                for x in 0..width {
                    let unpaired = height % 2 == 1 && y == height - 1;
                    if !unpaired && (x + y) % 2 == 1 {
                        prop_assert_eq!(at(x, y), at(x, y ^ 1), "partner ({}, {})", x, y);
                        continue;
                    }
                    let work = at(x, y);
                    let alone = trace_pixel(&scene, x, y, width, height, &one).stats.work();
                    prop_assert_eq!(work, alone, "pixel ({}, {})", x, y);
                    let mut path = PixelPath::new(x, y, width, height, &cfg);
                    let (mut tracing, mut sink) = (true, FirstSample::default());
                    while tracing {
                        (tracing, sink) = path.step(&scene, sink);
                    }
                    prop_assert_eq!(Some(work), sink.first, "pixel ({}, {})", x, y);
                }
            }
        }
    }

    #[test]
    fn the_banded_profile_is_the_one_pass_profile() {
        let scene = test_scene();
        let cfg = TraceConfig {
            samples_per_pixel: 2,
            max_bounces: 2,
            seed: 9,
        };
        for (width, height) in [(1, 1), (7, 1), (6, 2), (7, 3), (6, 34), (7, 35), (5, 67)] {
            let want = profile_costs(&scene, width, height, &cfg);
            for (name, lend) in crate::lend::tests::lenders() {
                let got = profile_costs_lent(&scene, width, height, &cfg, lend);
                assert!(got == want, "{width}x{height}, {name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cost_map_rejects_a_column_past_the_width() {
        // Row-major storage: unchecked, `(width, 0)` would write `(0, 1)`.
        CostMap::new(4, 2).set(4, 0, 1);
    }
}
