//! # zatel-rtworkload — ray tracing as a GPU workload
//!
//! Bridges the functional ray tracer of `zatel-rtcore` and the cycle-level
//! timing model of `zatel-gpusim`: every pixel becomes one GPU thread whose
//! [`gpusim::ThreadProgram`] steps the pixel's [`rtcore::tracer::PixelPath`]
//! — the path state machine the functional profiler steps too — emitting one
//! abstract op per BVH node fetch, primitive test and shading step.
//!
//! The profiler and a thread differ only in the sink they step the machine
//! with ([`rtcore::tracer::PathSink`]): one counts, the other records ops.
//! Same control flow, same traversal loop, same per-pixel RNG stream, so
//! the timing simulation executes exactly the memory accesses and ALU work
//! the functional render performs — there is no trace file and no replay
//! skew — and a pixel's heatmap cost and its simulated work come from one
//! code path. This crate only maps shading events to ops.
//!
//! A thread decodes *a ray at a time*: when its buffer is dry it steps its
//! path once, recording every node and primitive visit as a four-byte packed
//! op, then that hit's shading ops, and hands them out one per call. The
//! engine pulls one op per lane per phase across every resident warp, so a
//! lane's path state is touched once per ray; the ops and their order are
//! those of one-at-a-time decode, since a lane reads nothing but the
//! immutable scene and its own RNG. The lanes of a warp slot live in one
//! allocation ([`gpusim::WarpProgram`]) that backfills reuse, and each op is
//! categorized into the warp's [`gpusim::PhaseMix`] as it is popped.
//!
//! Pixel filtering (the paper's injected `filter_shader`, Listing 1) is
//! modeled by [`RtWorkload::with_selection`]: deselected threads run a
//! two-instruction exit program, so they are launched but contribute
//! negligible work, matching the paper's observation.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

use gpusim::{Op, PhaseMix, ThreadProgram, WarpProgram, Workload};
use rtcore::bvh::VisitSink;
use rtcore::material::{Material, MaterialId};
use rtcore::scene::Scene;
use rtcore::tracer::{PathSink, PixelPath, TraceConfig};

/// A pixel coordinate on the image plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pixel {
    /// Column (0 = left).
    pub x: u32,
    /// Row (0 = top).
    pub y: u32,
}

impl Pixel {
    /// Creates a pixel coordinate.
    pub fn new(x: u32, y: u32) -> Self {
        Pixel { x, y }
    }
}

/// Byte-address layout of the simulated GPU's global memory.
///
/// BVH nodes, primitives, materials and the framebuffer live in disjoint
/// regions with realistic strides, so cache behaviour (line reuse, set
/// conflicts, partition interleaving) reflects real data layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Base address of the flattened BVH node array.
    pub node_base: u64,
    /// Bytes per BVH node.
    pub node_stride: u64,
    /// Base address of the primitive array.
    pub prim_base: u64,
    /// Bytes per primitive.
    pub prim_stride: u64,
    /// Base address of the material table.
    pub material_base: u64,
    /// Bytes per material record.
    pub material_stride: u64,
    /// Base address of the framebuffer.
    pub framebuffer_base: u64,
    /// Bytes per pixel in the framebuffer.
    pub pixel_stride: u64,
}

impl Default for AddressMap {
    fn default() -> Self {
        AddressMap {
            node_base: 0x1000_0000,
            node_stride: 32,
            prim_base: 0x4000_0000,
            prim_stride: 64,
            material_base: 0x7000_0000,
            material_stride: 32,
            framebuffer_base: 0x8000_0000,
            pixel_stride: 16,
        }
    }
}

impl AddressMap {
    /// Address of BVH node `index`.
    pub fn node_addr(&self, index: u32) -> u64 {
        self.node_base + index as u64 * self.node_stride
    }

    /// Address of primitive `index`.
    pub fn prim_addr(&self, index: u32) -> u64 {
        self.prim_base + index as u64 * self.prim_stride
    }

    /// Address of material `index`.
    pub fn material_addr(&self, index: u32) -> u64 {
        self.material_base + index as u64 * self.material_stride
    }

    /// Framebuffer address of pixel `(x, y)` in a `width`-wide image.
    pub fn pixel_addr(&self, x: u32, y: u32, width: u32) -> u64 {
        self.framebuffer_base + (y as u64 * width as u64 + x as u64) * self.pixel_stride
    }
}

/// A ray-tracing workload: a list of pixels to launch (in thread/warp
/// order) over a scene, with an optional traced-pixel selection.
///
/// Threads `[32k, 32k+32)` of the pixel list form warp `k`, so the caller
/// controls warp composition by ordering the list — which is exactly the
/// lever Zatel's fine/coarse division and 32-wide section blocks pull.
///
/// # Examples
///
/// ```
/// use gpusim::{GpuConfig, Simulator};
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use rtworkload::RtWorkload;
///
/// let scene = SceneId::Sprng.build(1);
/// let cfg = TraceConfig { samples_per_pixel: 1, max_bounces: 2, seed: 1 };
/// let workload = RtWorkload::full_frame(&scene, 32, 32, cfg);
/// let stats = Simulator::new(GpuConfig::mobile_soc()).run(&workload);
/// assert!(stats.rt_warp_phases > 0);
/// ```
pub struct RtWorkload<'s> {
    scene: &'s Scene,
    width: u32,
    height: u32,
    trace: TraceConfig,
    pixels: Vec<Pixel>,
    /// `selected[i] == false` → thread `i` runs the filter-exit program.
    selected: Option<Vec<bool>>,
    map: AddressMap,
}

impl std::fmt::Debug for RtWorkload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtWorkload")
            .field("scene", &self.scene.name())
            .field("width", &self.width)
            .field("height", &self.height)
            .field("pixels", &self.pixels.len())
            .field(
                "selected",
                &self
                    .selected
                    .as_ref()
                    .map(|s| s.iter().filter(|&&b| b).count()),
            )
            .finish()
    }
}

impl<'s> RtWorkload<'s> {
    /// Workload over an explicit pixel list (a Zatel group).
    ///
    /// `width`/`height` are the *full* image dimensions; pixel coordinates
    /// are absolute so per-pixel RNG streams match the full-frame render.
    /// Called by the repository's benchmark, as is
    /// [`RtWorkload::with_selection`]: both stay source-compatible.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` is empty or any coordinate is out of bounds.
    pub fn new(
        scene: &'s Scene,
        width: u32,
        height: u32,
        trace: TraceConfig,
        pixels: Vec<Pixel>,
    ) -> Self {
        assert!(!pixels.is_empty(), "workload needs at least one pixel");
        assert!(
            pixels.iter().all(|p| p.x < width && p.y < height),
            "pixel out of image bounds"
        );
        let indexed = [
            scene.bvh().node_count(),
            scene.primitives().len(),
            scene.materials().len(),
        ];
        assert!(
            indexed.iter().all(|&n| n <= PackedOp::ARG_MAX as usize),
            "scene too large for a lane's packed ops"
        );
        RtWorkload {
            scene,
            width,
            height,
            trace,
            pixels,
            selected: None,
            map: AddressMap::default(),
        }
    }

    /// Workload tracing the whole `width × height` frame in 32×2-pixel
    /// tiles (row-major tile order, row-major within a tile).
    ///
    /// Ray-generation shaders dispatch rays in small 2D tiles, not in
    /// scanlines, so consecutive warps cover vertically adjacent pixel
    /// runs; this is also exactly the chunk shape Zatel's fine-grained
    /// division uses, keeping per-SM locality comparable between full-frame
    /// and per-group simulations.
    pub fn full_frame(scene: &'s Scene, width: u32, height: u32, trace: TraceConfig) -> Self {
        const TILE_W: u32 = 32;
        const TILE_H: u32 = 2;
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for ty in 0..height.div_ceil(TILE_H) {
            for tx in 0..width.div_ceil(TILE_W) {
                for y in ty * TILE_H..((ty + 1) * TILE_H).min(height) {
                    for x in tx * TILE_W..((tx + 1) * TILE_W).min(width) {
                        pixels.push(Pixel::new(x, y));
                    }
                }
            }
        }
        Self::new(scene, width, height, trace, pixels)
    }

    /// Restricts tracing to the pixels where `selected` is `true`. The
    /// deselected threads still launch and immediately exit (the paper's
    /// `filter_shader`).
    ///
    /// # Panics
    ///
    /// Panics if `selected.len()` differs from the pixel count.
    pub fn with_selection(mut self, selected: Vec<bool>) -> Self {
        assert_eq!(
            selected.len(),
            self.pixels.len(),
            "selection mask length mismatch"
        );
        self.selected = Some(selected);
        self
    }

    /// The pixels of this workload in thread order.
    pub fn pixels(&self) -> &[Pixel] {
        &self.pixels
    }

    /// Number of pixels that will actually be traced.
    pub fn traced_count(&self) -> usize {
        match &self.selected {
            Some(sel) => sel.iter().filter(|&&b| b).count(),
            None => self.pixels.len(),
        }
    }

    /// The fraction of this workload's pixels that will be traced.
    pub fn traced_fraction(&self) -> f64 {
        self.traced_count() as f64 / self.pixels.len() as f64
    }
}

impl Workload for RtWorkload<'_> {
    fn thread_count(&self) -> u64 {
        self.pixels.len() as u64
    }

    fn create_thread(&self, index: u64) -> Box<dyn ThreadProgram + '_> {
        Box::new(PixelProgram::new(self, index))
    }

    fn warp_program(&self) -> Box<dyn WarpProgram + '_> {
        Box::new(PixelWarp {
            workload: self,
            lanes: Vec::new(),
        })
    }

    fn filtered_threads(&self) -> u64 {
        (self.pixels.len() - self.traced_count()) as u64
    }
}

/// A warp slot's lanes, side by side in one allocation.
struct PixelWarp<'w> {
    workload: &'w RtWorkload<'w>,
    lanes: Vec<PixelProgram<'w>>,
}

impl WarpProgram for PixelWarp<'_> {
    fn launch(&mut self, first_thread: u64, lanes: u32) {
        let threads = first_thread..first_thread + lanes as u64;
        self.lanes.clear();
        self.lanes
            .extend(threads.map(|i| PixelProgram::new(self.workload, i)));
    }

    fn gather(&mut self, phase: &mut PhaseMix) {
        // Exited lanes leave the vector, live ones stay in lane order.
        self.lanes
            .retain_mut(|lane| lane.next_op().map(|op| phase.push(op)).is_some());
    }
}

/// An [`Op`] as a lane buffers it: the kind in the top three bits and its
/// argument — a node, primitive or material index, or an ALU cycle count —
/// in the low 29. A quarter of an `Op`; [`PixelProgram::next_op`] widens it
/// with the workload's [`AddressMap`].
#[derive(Clone, Copy)]
struct PackedOp(u32);

impl PackedOp {
    const ARG_BITS: u32 = 29;
    const ARG_MAX: u32 = (1 << Self::ARG_BITS) - 1;
    /// `Op::Compute` of `arg` cycles and instructions.
    const COMPUTE: u32 = 0;
    /// `Op::RtNode` of BVH node `arg`.
    const NODE: u32 = 1;
    /// `Op::RtPrim` of primitive `arg`.
    const PRIM: u32 = 2;
    /// `Op::Load` of material `arg`.
    const MATERIAL: u32 = 3;
    /// `Op::Store` of the lane's own framebuffer pixel.
    const STORE: u32 = 4;
}

/// A lane's decoded ops, and the recording sink of its path: each node fetch
/// and primitive test becomes a packed op as the traversal loop visits it,
/// and each shading event the ops the timing model charges for it.
#[derive(Default)]
struct LaneOps(Vec<PackedOp>);

/// Ops a lane's buffer keeps room for between rays. Most rays record fewer;
/// the buffer grows for a longer one and gives the excess back after it, so
/// a lane plus its buffer stays within the lane it replaced (the lane-size
/// test) however long the longest ray was.
const RETAINED_OPS: usize = 64;

impl LaneOps {
    fn push(&mut self, kind: u32, arg: u32) {
        debug_assert!(arg <= PackedOp::ARG_MAX);
        self.0.push(PackedOp(kind << PackedOp::ARG_BITS | arg));
    }

    /// Empties the buffer for the next ray.
    fn clear(&mut self) {
        self.0.clear();
        self.0.shrink_to(RETAINED_OPS);
    }
}

impl VisitSink for LaneOps {
    fn interior(&mut self, node: u32) {
        self.push(PackedOp::NODE, node);
    }

    fn leaf(&mut self, node: u32) {
        self.push(PackedOp::NODE, node);
    }

    fn prim(&mut self, prim: u32) {
        self.push(PackedOp::PRIM, prim);
    }
}

/// Passed by reference: the buffer stays in its lane while the ray is traced.
impl PathSink for &mut LaneOps {
    fn camera_ray(&mut self) {
        self.push(PackedOp::COMPUTE, 16);
    }

    fn miss(&mut self) {
        // Sky: small shade cost, path ends.
        self.push(PackedOp::COMPUTE, 4);
    }

    fn hit(&mut self, id: MaterialId, material: &Material) {
        // Material fetch + shading ALU work.
        self.push(PackedOp::MATERIAL, id.0);
        self.push(PackedOp::COMPUTE, material.shading_cost());
    }

    fn shadow_ray(&mut self) {
        // Shadow-ray setup cost.
        self.push(PackedOp::COMPUTE, 6);
    }
}

/// Per-pixel thread program: steps the pixel's [`PixelPath`] a ray at a time
/// with its op buffer as the sink, and hands the ops out one per call. What
/// a buffered pop reads comes first.
#[repr(C)]
struct PixelProgram<'w> {
    workload: &'w RtWorkload<'w>,
    ops: LaneOps,
    /// `ops[head..]` is decoded and not yet handed out.
    head: u32,
    pixel: Pixel,
    /// `None` once the thread's last op is decoded.
    path: Option<PixelPath>,
}

impl<'w> PixelProgram<'w> {
    fn new(workload: &'w RtWorkload<'w>, index: u64) -> Self {
        let i = index as usize;
        let pixel @ Pixel { x, y } = workload.pixels[i];
        let mut lane = PixelProgram {
            workload,
            ops: LaneOps::default(),
            head: 0,
            pixel,
            path: None,
        };
        if workload.selected.as_ref().is_none_or(|sel| sel[i]) {
            let (width, height) = (workload.width, workload.height);
            lane.path = Some(PixelPath::new(x, y, width, height, &workload.trace));
        } else {
            // A deselected pixel: the paper's `filter_shader` + exit (Listing 1).
            lane.ops.push(PackedOp::COMPUTE, 2);
        }
        lane
    }

    /// Decodes the next ray — its visits, then the shading of what it hit —
    /// or the framebuffer write into the dry buffer; `false` if the thread
    /// has exited. Out of line, so that the pop in `next_op` stays a handful
    /// of instructions that inline into a warp's gather loop.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        self.head = 0;
        self.ops.clear();
        // A shadow ray that misses the scene's box records nothing.
        while self.ops.0.is_empty() {
            let Some(path) = &mut self.path else {
                return false;
            };
            if !path.step(self.workload.scene, &mut self.ops).0 {
                // Frame done for this pixel: write the framebuffer.
                self.ops.push(PackedOp::STORE, 0);
                self.path = None;
            }
        }
        true
    }
}

impl ThreadProgram for PixelProgram<'_> {
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        if self.head as usize == self.ops.0.len() && !self.refill() {
            return None;
        }
        let PackedOp(packed) = self.ops.0[self.head as usize];
        self.head += 1;
        let (map, arg) = (&self.workload.map, packed & PackedOp::ARG_MAX);
        Some(match packed >> PackedOp::ARG_BITS {
            PackedOp::COMPUTE => Op::Compute {
                cycles: arg,
                insts: arg,
            },
            PackedOp::NODE => Op::RtNode {
                addr: map.node_addr(arg),
            },
            PackedOp::PRIM => Op::RtPrim {
                addr: map.prim_addr(arg),
            },
            PackedOp::MATERIAL => Op::Load {
                addr: map.material_addr(arg),
                bytes: 32,
            },
            _ => Op::Store {
                addr: map.pixel_addr(self.pixel.x, self.pixel.y, self.workload.width),
                bytes: map.pixel_stride as u32,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{GpuConfig, Simulator};
    use rtcore::camera::Camera;
    use rtcore::geom::Triangle;
    use rtcore::math::{Ray, Vec3, RAY_EPSILON};
    use rtcore::scene::SceneBuilder;
    use rtcore::scenes::SceneId;
    use rtcore::tracer::trace_pixel;

    fn cfg() -> TraceConfig {
        TraceConfig {
            samples_per_pixel: 2,
            max_bounces: 3,
            seed: 11,
        }
    }

    /// Thread `index`'s ops, drained.
    fn drain(workload: &RtWorkload<'_>, index: u64) -> Vec<Op> {
        let mut thread = workload.create_thread(index);
        std::iter::from_fn(|| thread.next_op()).collect()
    }

    #[test]
    fn address_map_regions_are_disjoint() {
        let m = AddressMap::default();
        assert!(m.node_addr(1_000_000) < m.prim_base);
        assert!(m.prim_addr(1_000_000) < m.material_base);
        assert!(m.material_addr(100_000) < m.framebuffer_base);
        assert_eq!(m.pixel_addr(1, 0, 64) - m.pixel_addr(0, 0, 64), 16);
        assert_eq!(m.pixel_addr(0, 1, 64) - m.pixel_addr(0, 0, 64), 64 * 16);
    }

    #[test]
    fn threads_are_reproducible() {
        let scene = SceneId::Sprng.build(1);
        let workload = RtWorkload::full_frame(&scene, 8, 8, cfg());
        assert_eq!(drain(&workload, 5), drain(&workload, 5));
    }

    #[test]
    fn every_thread_terminates_with_store() {
        let scene = SceneId::Bath.build(2);
        let workload = RtWorkload::full_frame(&scene, 8, 8, cfg());
        for i in 0..workload.thread_count() {
            let mut t = workload.create_thread(i);
            let mut last = None;
            let mut n = 0u64;
            while let Some(op) = t.next_op() {
                last = Some(op);
                n += 1;
                assert!(n < 2_000_000, "thread {i} does not terminate");
            }
            assert!(
                matches!(last, Some(Op::Store { .. })),
                "thread {i} must write the framebuffer"
            );
        }
    }

    #[test]
    fn filtered_threads_run_two_instructions() {
        let scene = SceneId::Sprng.build(1);
        let n = 64usize;
        let mut sel = vec![false; n];
        sel[0] = true;
        let workload = RtWorkload::full_frame(&scene, 8, 8, cfg()).with_selection(sel);
        assert_eq!(workload.traced_count(), 1);
        assert!((workload.traced_fraction() - 1.0 / 64.0).abs() < 1e-12);
        let mut t = workload.create_thread(1);
        assert_eq!(
            t.next_op(),
            Some(Op::Compute {
                cycles: 2,
                insts: 2
            })
        );
        assert_eq!(t.next_op(), None);
    }

    #[test]
    fn filtered_threads_are_counted_in_the_stats() {
        let scene = SceneId::Sprng.build(1);
        let (w, h) = (16u32, 16u32);
        let sel: Vec<bool> = (0..(w * h) as usize).map(|i| i % 4 == 0).collect();
        let workload = RtWorkload::full_frame(&scene, w, h, cfg()).with_selection(sel);
        let stats = Simulator::new(GpuConfig::mobile_soc()).run(&workload);
        assert_eq!(stats.threads_launched, 256);
        assert_eq!(stats.threads_filtered, 192, "75 % filtered");
        assert_eq!(
            stats.threads_launched - stats.threads_filtered,
            workload.traced_count() as u64
        );
        let unfiltered = RtWorkload::full_frame(&scene, w, h, cfg());
        let stats = Simulator::new(GpuConfig::mobile_soc()).run(&unfiltered);
        assert_eq!(stats.threads_filtered, 0);
    }

    #[test]
    fn selection_reduces_simulated_cycles() {
        let scene = SceneId::Chsnt.build(4);
        let (w, h) = (32u32, 32u32);
        let trace = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 5,
        };
        let full = RtWorkload::full_frame(&scene, w, h, trace);
        let sim = Simulator::new(GpuConfig::mobile_soc());
        let full_stats = sim.run(&full);
        let sel: Vec<bool> = (0..(w * h) as usize).map(|i| i % 4 == 0).collect();
        let quarter = RtWorkload::full_frame(&scene, w, h, trace).with_selection(sel);
        let q_stats = sim.run(&quarter);
        assert!(
            q_stats.cycles < full_stats.cycles,
            "quarter trace {} should beat full {}",
            q_stats.cycles,
            full_stats.cycles
        );
    }

    #[test]
    fn subset_pixels_trace_identically_to_full_frame() {
        // Per-pixel RNG depends only on (seed, x, y): a group containing a
        // pixel produces the identical op stream as the full frame.
        let scene = SceneId::Wknd.build(3);
        let trace = cfg();
        let full = RtWorkload::full_frame(&scene, 16, 16, trace);
        let group = RtWorkload::new(
            &scene,
            16,
            16,
            trace,
            vec![Pixel::new(3, 7), Pixel::new(12, 2)],
        );
        // Pixel (3,7) is thread 7*16+3 = 115 of the full frame.
        assert_eq!(drain(&group, 0), drain(&full, 115));
        // Pixel (12,2) is thread 2*16+12 = 44.
        assert_eq!(drain(&group, 1), drain(&full, 44));
    }

    #[test]
    #[should_panic(expected = "at least one pixel")]
    fn empty_pixel_list_panics() {
        let scene = SceneId::Sprng.build(1);
        let _ = RtWorkload::new(&scene, 8, 8, cfg(), vec![]);
    }

    #[test]
    #[should_panic(expected = "out of image bounds")]
    fn out_of_bounds_pixel_panics() {
        let scene = SceneId::Sprng.build(1);
        let _ = RtWorkload::new(&scene, 8, 8, cfg(), vec![Pixel::new(8, 0)]);
    }

    #[test]
    fn a_lane_traces_on_past_a_shadow_ray_that_records_nothing() {
        // One floor triangle makes the scene's box flat, and the light is
        // overhead: every shadow ray starts just above the box and leaves
        // it, so its query visits nothing and the refill must go on to the
        // next ray rather than end the thread.
        let v = Vec3::new;
        let camera = Camera::look_at(v(0.0, 4.0, -1.0), Vec3::ZERO, Vec3::Y, 40.0);
        let mut builder = SceneBuilder::new("floor", camera);
        let gray = builder.add_material(Material::diffuse(Vec3::splat(0.7)));
        let corners = [v(-50.0, 0.0, -50.0), v(50.0, 0.0, -50.0), v(0.0, 0.0, 50.0)];
        builder.add_triangle(Triangle::new(corners[0], corners[1], corners[2], gray));
        builder.add_light(v(0.0, 10.0, 0.0), Vec3::splat(50.0));
        let scene = builder.build();
        let shadow = Ray::segment(v(0.0, RAY_EPSILON, 0.0), Vec3::Y, 9.0);
        let (_, stats) = scene.bvh().occluded(&shadow, scene.primitives());
        assert_eq!(stats.nodes_visited, 0, "the shadow ray misses the box");
        let workload = RtWorkload::full_frame(&scene, 4, 4, cfg());
        for (i, &Pixel { x, y }) in workload.pixels().iter().enumerate() {
            let ops = drain(&workload, i as u64);
            // The lane does the work the profiler counts for its pixel,
            // shadow rays included.
            let want = trace_pixel(&scene, x, y, 4, 4, &cfg());
            assert!(want.rays > 2 * cfg().samples_per_pixel, "thread {i}");
            let nodes = ops.iter().filter(|op| matches!(op, Op::RtNode { .. }));
            let prims = ops.iter().filter(|op| matches!(op, Op::RtPrim { .. }));
            let got = [nodes.count(), prims.count()].map(|n| n as u64);
            assert_eq!(got, [want.stats.nodes_visited, want.stats.prim_tests]);
            assert!(matches!(ops.last(), Some(Op::Store { .. })), "thread {i}");
        }
    }

    #[test]
    fn a_lane_is_no_bigger_than_the_one_it_replaces() {
        // The run-ahead lane this one replaces: 480 bytes, a 280-byte
        // `Traversal` and a 24-op burst buffer included. This lane's state
        // plus the buffer it keeps between rays must fit in the same.
        let lane = std::mem::size_of::<PixelProgram<'_>>();
        let retained = RETAINED_OPS * std::mem::size_of::<PackedOp>();
        assert!(
            lane + retained <= 480,
            "lane state {lane} B + retained buffer {retained} B > 480 B per lane before"
        );
        assert_eq!(
            std::mem::size_of::<PackedOp>() * 4,
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn a_long_ray_gives_its_buffer_back() {
        let mut ops = LaneOps::default();
        for node in 0..5 * RETAINED_OPS as u32 {
            ops.interior(node);
        }
        ops.clear();
        assert!(ops.0.is_empty());
        assert!(ops.0.capacity() <= RETAINED_OPS);
    }
}
