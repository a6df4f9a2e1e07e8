//! Flattened BVH storage and stepwise traversal.
//!
//! Traversal is exposed as an explicit state machine ([`Traversal`]) that
//! yields one [`TraversalStep`] per node fetch or primitive test. The timing
//! simulator (`zatel-rtworkload`) steps it a bounded burst at a time, turning
//! each step into memory transactions and ALU work; the functional path
//! tracer only needs the result and the counters, which [`Bvh::intersect`]
//! and [`Bvh::occluded`] compute in one fused loop that a differential test
//! holds to the step machine ray for ray — so the functional and timing
//! models agree on exactly which work a ray performs.
//!
//! Both loops take two exact shortcuts, neither visible in the steps or the
//! counters. A ray in the class of [`Ray::slab_finite`] — every ray the
//! tracer casts, short of one with a zero direction component — runs the
//! NaN-free [`Aabb::hit_finite`]; any other ray runs the reference
//! [`Aabb::hit`]. Each loop is written once, generic over that choice, and
//! picks it once per ray. And a popped node is re-tested only if a hit has
//! shrunk the interval since it was pushed: the fused loop compares the
//! entry distance it stacked, the step machine skips the entries above the
//! stack height of its last hit.

use crate::geom::{Hit, Primitive, PrimitiveId};
use crate::math::{Aabb, Ray, Vec3};
use minijson::{FromJson, JsonError, Value};

/// A node of the flattened BVH.
///
/// Interior nodes keep their left child at `self + 1` (depth-first layout)
/// and store the right child index; leaves store a range into the
/// primitive-order array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    bounds: Aabb,
    /// Leaf: first index into the primitive order. Interior: right child.
    first_or_right: u32,
    /// Leaf: number of primitives. Unused for interior nodes.
    count: u32,
    /// Split axis for interior nodes (0/1/2).
    axis: u8,
    leaf: bool,
}

impl FlatNode {
    /// Creates a leaf covering `count` primitives starting at `first` in the
    /// BVH's primitive order.
    pub fn leaf(bounds: Aabb, first: u32, count: u32) -> Self {
        FlatNode {
            bounds,
            first_or_right: first,
            count,
            axis: 0,
            leaf: true,
        }
    }

    /// Creates an interior node whose right child is at `right`.
    pub fn interior(bounds: Aabb, right: u32, axis: u8) -> Self {
        FlatNode {
            bounds,
            first_or_right: right,
            count: 0,
            axis,
            leaf: false,
        }
    }

    /// Bounding box of the node.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Returns `true` for leaves.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// First primitive-order index (leaves only).
    pub fn first_prim(&self) -> u32 {
        debug_assert!(self.leaf);
        self.first_or_right
    }

    /// Number of primitives (leaves only).
    pub fn prim_count(&self) -> u32 {
        debug_assert!(self.leaf);
        self.count
    }

    /// Right child index (interior nodes only).
    pub fn right_child(&self) -> u32 {
        debug_assert!(!self.leaf);
        self.first_or_right
    }

    /// Split axis (interior nodes only).
    pub fn split_axis(&self) -> u8 {
        self.axis
    }
}

/// Counters accumulated while traversing; the basis of the execution-time
/// heatmap (paper Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalStats {
    /// BVH nodes fetched (interior + leaf).
    pub nodes_visited: u64,
    /// Ray/AABB slab tests executed.
    pub box_tests: u64,
    /// Ray/primitive intersection tests executed.
    pub prim_tests: u64,
    /// Leaf nodes visited.
    pub leaf_visits: u64,
}

impl TraversalStats {
    /// Adds another stats record into this one.
    pub fn accumulate(&mut self, other: &TraversalStats) {
        self.nodes_visited += other.nodes_visited;
        self.box_tests += other.box_tests;
        self.prim_tests += other.prim_tests;
        self.leaf_visits += other.leaf_visits;
    }

    /// Total abstract work units; the per-pixel cost metric profiled into
    /// the heatmap.
    pub fn work(&self) -> u64 {
        self.nodes_visited + self.box_tests + 2 * self.prim_tests
    }
}

minijson::record! {
    FlatNode {
        "bounds" => bounds,
        "first_or_right" => first_or_right,
        "count" => count,
        "axis" => axis,
        "leaf" => leaf,
    }
}

minijson::record! {
    TraversalStats {
        "nodes_visited" => nodes_visited,
        "box_tests" => box_tests,
        "prim_tests" => prim_tests,
        "leaf_visits" => leaf_visits,
    }
}

/// One observable step of BVH traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalStep {
    /// An interior node was fetched and its children box-tested.
    InteriorNode {
        /// Index of the node in [`Bvh::nodes`].
        node: u32,
    },
    /// A leaf node was fetched.
    LeafNode {
        /// Index of the node in [`Bvh::nodes`].
        node: u32,
        /// Number of primitives the leaf will test.
        count: u32,
    },
    /// A primitive was fetched and intersection-tested.
    PrimitiveTest {
        /// Scene primitive id that was tested.
        prim: PrimitiveId,
        /// Whether the test produced a new closest hit.
        hit: bool,
    },
}

/// A flattened bounding volume hierarchy.
///
/// # Examples
///
/// ```
/// use rtcore::bvh::Bvh;
/// use rtcore::geom::{Primitive, Sphere};
/// use rtcore::material::MaterialId;
/// use rtcore::math::{Ray, Vec3};
///
/// let prims = vec![Primitive::Sphere(Sphere::new(Vec3::ZERO, 1.0, MaterialId(0)))];
/// let bvh = Bvh::build(&prims);
/// let ray = Ray::new(Vec3::new(0.0, 0.0, -3.0), Vec3::Z);
/// let (hit, stats) = bvh.intersect(&ray, &prims);
/// assert!(hit.is_some());
/// assert!(stats.nodes_visited > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bvh {
    nodes: Vec<FlatNode>,
    prim_order: Vec<u32>,
    /// Level of the deepest node (root = 0); at most [`MAX_DEPTH`].
    depth: usize,
}

/// Deepest node level a [`Bvh`] may have (root = 0). [`Traversal`] keeps its
/// stack inline: ordered depth-first traversal defers at most one sibling
/// per level, so a tree of depth `d` never stacks more than `d + 1` nodes.
/// The builder ends a branch with a leaf at this level and
/// [`Bvh::from_json`] rejects deeper trees.
pub const MAX_DEPTH: usize = 47;

/// The level of the deepest node, or `None` unless `nodes` is a non-empty
/// tree laid out depth-first (left child at `parent + 1`, right child
/// later — anything else could send traversal out of bounds or in circles)
/// and no deeper than [`MAX_DEPTH`].
fn tree_depth(nodes: &[FlatNode]) -> Option<usize> {
    // A byte per node (a saturated level is far past MAX_DEPTH): the scratch
    // of a 64 k-node scene stays a small heap block instead of a fresh
    // half-megabyte mapping per scene build.
    let mut level = vec![0u8; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        if !node.leaf {
            let right = node.first_or_right as usize;
            if right <= i + 1 || right >= nodes.len() {
                return None;
            }
            for child in [i + 1, right] {
                level[child] = level[child].max(level[i].saturating_add(1));
            }
        }
    }
    let depth = usize::from(level.into_iter().max()?);
    (depth <= MAX_DEPTH).then_some(depth)
}

impl Bvh {
    /// Assembles a BVH from prebuilt parts; `None` if [`tree_depth`] rejects
    /// `nodes`.
    fn checked(nodes: Vec<FlatNode>, prim_order: Vec<u32>) -> Option<Self> {
        let depth = tree_depth(&nodes)?;
        Some(Bvh {
            nodes,
            prim_order,
            depth,
        })
    }

    /// Assembles a BVH from the builder's output.
    pub(crate) fn new(nodes: Vec<FlatNode>, prim_order: Vec<u32>) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "audited stack invariant: the builder lays nodes out depth-first and ends branches at MAX_DEPTH, so a failure is a builder bug"
        )]
        Self::checked(nodes, prim_order).expect("builder output fits the traversal stack")
    }

    /// Level of the deepest node (root = 0); never above [`MAX_DEPTH`].
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Builds a BVH over `prims` with the binned-SAH builder.
    pub fn build(prims: &[Primitive]) -> Self {
        super::build::build_bvh(prims)
    }

    /// Builds a BVH over `prims` with an explicit construction strategy.
    pub fn build_with(prims: &[Primitive], method: super::BuildMethod) -> Self {
        super::build::build_bvh_with(prims, method)
    }

    /// The flattened node array.
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Primitive visit order (indices into the scene primitive array).
    pub fn primitive_order(&self) -> &[u32] {
        &self.prim_order
    }

    /// Starts a stepwise traversal of `ray`.
    pub fn traverse<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a> {
        Traversal::new(self, ray, prims)
    }

    /// Starts a stepwise *any-hit* traversal (shadow/occlusion query):
    /// stepping ends as soon as any intersection is found.
    pub fn traverse_any<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a> {
        Traversal::new_any_hit(self, ray, prims)
    }

    /// Finds the closest hit, with the counters of a fully drained
    /// [`Bvh::traverse`].
    pub fn intersect(&self, ray: &Ray, prims: &[Primitive]) -> (Option<Hit>, TraversalStats) {
        let (found, stats) = self.query(ray, prims, false);
        (
            found.map(|(t, prim)| resolve_hit(ray, prims, t, prim)),
            stats,
        )
    }

    /// Returns `true` if anything occludes the ray segment (early-out
    /// any-hit query used for shadow rays), with the counters of a
    /// [`Bvh::traverse_any`] stepped up to its first hit.
    pub fn occluded(&self, ray: &Ray, prims: &[Primitive]) -> (bool, TraversalStats) {
        let (found, stats) = self.query(ray, prims, true);
        (found.is_some(), stats)
    }

    /// The whole of a [`Traversal`] in one loop — same visit order, same
    /// culling, same counters, no [`TraversalStep`]s — returning the
    /// closest `(t, primitive)`, or with `any_hit` the first one found.
    ///
    /// Stack entries carry the distance at which the ray enters their box.
    /// A deferred node passed `t_enter <= min(t_far, t_max)` when it was
    /// pushed and only `t_max` has shrunk since, so whether it is still
    /// worth visiting is the single comparison below rather than a second
    /// slab test.
    fn query(
        &self,
        ray: &Ray,
        prims: &[Primitive],
        any_hit: bool,
    ) -> (Option<(f32, u32)>, TraversalStats) {
        let inv_dir = ray.inv_dir();
        if ray.slab_finite(inv_dir) {
            self.query_with::<true>(ray, inv_dir, prims, any_hit)
        } else {
            self.query_with::<false>(ray, inv_dir, prims, any_hit)
        }
    }

    /// [`Bvh::query`] with the slab test chosen by [`slab`].
    fn query_with<const FINITE: bool>(
        &self,
        ray: &Ray,
        inv_dir: Vec3,
        prims: &[Primitive],
        any_hit: bool,
    ) -> (Option<(f32, u32)>, TraversalStats) {
        let mut stats = TraversalStats {
            box_tests: 1,
            ..TraversalStats::default()
        };
        // `probe.t_max` is the closest hit distance so far.
        let mut probe = *ray;
        let mut best = None;
        let mut stack = [(0u32, 0f32); MAX_DEPTH + 1];
        let mut len = 0;
        if let Some(t_enter) = slab::<FINITE>(&self.nodes[0].bounds, ray, inv_dir) {
            stack[0] = (0, t_enter);
            len = 1;
        }
        while len > 0 {
            len -= 1;
            let (index, t_enter) = stack[len];
            if probe.t_max < t_enter {
                continue;
            }
            stats.nodes_visited += 1;
            let node = &self.nodes[index as usize];
            if node.leaf {
                stats.leaf_visits += 1;
                let first = node.first_or_right as usize;
                for &prim in &self.prim_order[first..first + node.count as usize] {
                    stats.prim_tests += 1;
                    if let Some(t) = prims[prim as usize].hit(&probe) {
                        probe.t_max = t;
                        best = Some((t, prim));
                        if any_hit {
                            return (best, stats);
                        }
                    }
                }
                continue;
            }
            // Interior: box-test both children, push hits far-then-near.
            stats.box_tests += 2;
            let (left, right) = (index + 1, node.first_or_right);
            let t_left = slab::<FINITE>(&self.nodes[left as usize].bounds, &probe, inv_dir);
            let t_right = slab::<FINITE>(&self.nodes[right as usize].bounds, &probe, inv_dir);
            let mut push = |node: u32, t_enter: f32| {
                stack[len] = (node, t_enter);
                len += 1;
            };
            match (t_left, t_right) {
                (Some(tl), Some(tr)) if tl <= tr => {
                    push(right, tr);
                    push(left, tl);
                }
                (Some(tl), Some(tr)) => {
                    push(left, tl);
                    push(right, tr);
                }
                (Some(tl), None) => push(left, tl),
                (None, Some(tr)) => push(right, tr),
                (None, None) => {}
            }
        }
        (best, stats)
    }
}

/// The slab test of a traversal loop: [`Aabb::hit_finite`] if `FINITE` (the
/// ray is in the class of [`Ray::slab_finite`]), else the reference
/// [`Aabb::hit`].
#[inline(always)]
fn slab<const FINITE: bool>(bounds: &Aabb, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
    if FINITE {
        bounds.hit_finite(ray, inv_dir)
    } else {
        bounds.hit(ray, inv_dir)
    }
}

/// The shading record of `ray` hitting `prims[prim]` at distance `t`.
fn resolve_hit(ray: &Ray, prims: &[Primitive], t: f32, prim: u32) -> Hit {
    let primitive = &prims[prim as usize];
    let point = ray.at(t);
    Hit {
        t,
        point,
        normal: primitive.shading_normal(point, ray.dir),
        material: primitive.material(),
        primitive: PrimitiveId(prim),
    }
}

minijson::record! {
    to_json Bvh {
        "nodes" => nodes,
        "prim_order" => prim_order,
    }
}

/// Hand-written: decoding goes through `Bvh::checked`.
impl FromJson for Bvh {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let nodes = minijson::field(value, "Bvh", "nodes")?;
        let prim_order = minijson::field(value, "Bvh", "prim_order")?;
        Bvh::checked(nodes, prim_order).ok_or_else(|| {
            JsonError::conversion("Bvh: nodes must form a depth-first tree within MAX_DEPTH")
        })
    }
}

/// Stepwise ray traversal over a [`Bvh`].
///
/// Call [`Traversal::step`] until it returns `None`, then read the result via
/// [`Traversal::hit`]. Each step performs the actual intersection math, so
/// consumers observe real traversal behaviour, not a replay.
///
/// The timing simulator keeps one of these per resident GPU thread and
/// steps thousands of them in turn, so the layout is fixed: what every step
/// reads or writes fills the first 64 bytes, and the node stack — whose deep
/// end most rays never reach — comes last.
#[derive(Debug)]
#[repr(C)]
pub struct Traversal<'a> {
    ray: Ray,
    inv_dir: Vec3,
    best_t: f32,
    /// The closest primitive hit so far, or [`NO_PRIM`].
    best_prim: u32,
    /// Primitive tests left in the current leaf: order indices
    /// `[pending.0, pending.1)`.
    pending: (u32, u32),
    /// `stack[..stack_len]` is live.
    stack_len: u8,
    any_hit: bool,
    /// `stack[watermark..stack_len]` was pushed since the last closest hit
    /// (or the start), so it passed the slab test against the current
    /// `best_t`. Lowered to the stack height by a pop that goes below it.
    watermark: u8,
    /// The ray is in the class of [`Ray::slab_finite`].
    finite: bool,
    bvh: &'a Bvh,
    prims: &'a [Primitive],
    /// Nodes still to visit.
    stack: [u32; MAX_DEPTH + 1],
}

/// [`Traversal::best_prim`] before any hit.
const NO_PRIM: u32 = u32::MAX;

impl<'a> Traversal<'a> {
    fn new(bvh: &'a Bvh, ray: Ray, prims: &'a [Primitive]) -> Self {
        Self::with_mode(bvh, ray, prims, false)
    }

    fn new_any_hit(bvh: &'a Bvh, ray: Ray, prims: &'a [Primitive]) -> Self {
        Self::with_mode(bvh, ray, prims, true)
    }

    fn with_mode(bvh: &'a Bvh, ray: Ray, prims: &'a [Primitive], any_hit: bool) -> Self {
        let inv_dir = ray.inv_dir();
        // The root box is tested once up front ("does the ray enter the
        // scene at all"), mirroring how the ray-generation shader rejects
        // rays that miss the scene bounds. The stack starts as `[root]`, or
        // empty if the ray misses the scene.
        let stack_len = bvh.nodes[0].bounds.hit(&ray, inv_dir).is_some() as u8;
        Traversal {
            ray,
            inv_dir,
            best_t: ray.t_max,
            best_prim: NO_PRIM,
            pending: (0, 0),
            stack_len,
            any_hit,
            watermark: 0,
            finite: ray.slab_finite(inv_dir),
            bvh,
            prims,
            stack: [0; MAX_DEPTH + 1],
        }
    }

    /// Defers `node`. In bounds by the [`MAX_DEPTH`] invariant of [`Bvh`].
    fn push(&mut self, node: u32) {
        self.stack[self.stack_len as usize] = node;
        self.stack_len += 1;
    }

    /// Executes one traversal step, or returns `None` when finished.
    pub fn step(&mut self) -> Option<TraversalStep> {
        if self.finite {
            self.step_with::<true>()
        } else {
            self.step_with::<false>()
        }
    }

    /// [`Traversal::step`] with the slab test chosen by [`slab`].
    #[inline(always)]
    fn step_with<const FINITE: bool>(&mut self) -> Option<TraversalStep> {
        // Finish pending primitive tests of the current leaf first.
        let (cursor, end) = self.pending;
        if cursor < end {
            let prim_index = self.bvh.prim_order[cursor as usize];
            self.pending.0 = cursor + 1;
            let mut probe = self.ray;
            probe.t_max = self.best_t;
            let hit = if let Some(t) = self.prims[prim_index as usize].hit(&probe) {
                self.best_t = t;
                self.best_prim = prim_index;
                self.watermark = self.stack_len;
                true
            } else {
                false
            };
            return Some(TraversalStep::PrimitiveTest {
                prim: PrimitiveId(prim_index),
                hit,
            });
        }

        // In any-hit mode, stop as soon as something was hit.
        if self.any_hit && self.hit_found() {
            return None;
        }

        let node_index = loop {
            self.stack_len = self.stack_len.checked_sub(1)?;
            let idx = self.stack[self.stack_len as usize];
            // Cull entries a hit has made stale: re-test against the shrunk
            // interval, which models no extra fetch. An entry pushed since
            // the last hit passed this same pure test against this same
            // `best_t`, so it is kept untested; below the watermark, every
            // entry pushed from here on is fresh.
            if self.stack_len >= self.watermark {
                break idx;
            }
            self.watermark = self.stack_len;
            let mut probe = self.ray;
            probe.t_max = self.best_t;
            if slab::<FINITE>(&self.bvh.nodes[idx as usize].bounds, &probe, self.inv_dir).is_some()
            {
                break idx;
            }
        };

        let node = &self.bvh.nodes[node_index as usize];
        if node.is_leaf() {
            let first = node.first_prim();
            let count = node.prim_count();
            self.pending = (first, first + count);
            return Some(TraversalStep::LeafNode {
                node: node_index,
                count,
            });
        }

        // Interior: box-test both children, push hits far-then-near so the
        // near child is popped first (ordered traversal).
        let left = node_index + 1;
        let right = node.right_child();
        let mut probe = self.ray;
        probe.t_max = self.best_t;
        let t_left = slab::<FINITE>(&self.bvh.nodes[left as usize].bounds, &probe, self.inv_dir);
        let t_right = slab::<FINITE>(&self.bvh.nodes[right as usize].bounds, &probe, self.inv_dir);
        match (t_left, t_right) {
            (Some(tl), Some(tr)) => {
                if tl <= tr {
                    self.push(right);
                    self.push(left);
                } else {
                    self.push(left);
                    self.push(right);
                }
            }
            (Some(_), None) => self.push(left),
            (None, Some(_)) => self.push(right),
            (None, None) => {}
        }
        Some(TraversalStep::InteriorNode { node: node_index })
    }

    /// The ray being traversed.
    pub fn ray(&self) -> Ray {
        self.ray
    }

    /// Whether any hit has been found so far.
    pub fn hit_found(&self) -> bool {
        self.best_prim != NO_PRIM
    }

    /// Resolves the closest hit found, if any. Call after draining
    /// [`Traversal::step`]; calling earlier returns the best hit so far.
    pub fn hit(&self) -> Option<Hit> {
        self.hit_found()
            .then(|| resolve_hit(&self.ray, self.prims, self.best_t, self.best_prim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Sphere, Triangle};
    use crate::material::MaterialId;
    use crate::math::{uniform_sphere, Pcg};
    use minijson::ToJson;
    use proptest::prelude::*;

    /// Drains `tr` step by step (`to_first_hit`: only until something is
    /// hit, as a shadow query does) and derives the counters from the
    /// steps alone: the reference the fused [`Bvh::query`] must equal.
    fn step_drained(mut tr: Traversal<'_>, to_first_hit: bool) -> (Option<Hit>, TraversalStats) {
        let mut stats = TraversalStats {
            box_tests: 1,
            ..TraversalStats::default()
        };
        while let Some(step) = tr.step() {
            match step {
                TraversalStep::InteriorNode { .. } => {
                    stats.nodes_visited += 1;
                    stats.box_tests += 2;
                }
                TraversalStep::LeafNode { .. } => {
                    stats.nodes_visited += 1;
                    stats.leaf_visits += 1;
                }
                TraversalStep::PrimitiveTest { .. } => stats.prim_tests += 1,
            }
            if to_first_hit && tr.hit_found() {
                break;
            }
        }
        (tr.hit(), stats)
    }

    /// Fused and stepped queries agree on `ray`: hit, any-hit and counters.
    fn assert_fused_matches_stepped(bvh: &Bvh, prims: &[Primitive], ray: Ray) {
        let (hit, stats) = step_drained(bvh.traverse(ray, prims), false);
        assert_eq!(bvh.intersect(&ray, prims), (hit, stats), "closest hit");
        let (hit, stats) = step_drained(bvh.traverse_any(ray, prims), true);
        assert_eq!(bvh.occluded(&ray, prims), (hit.is_some(), stats), "any hit");
    }

    fn two_spheres() -> Vec<Primitive> {
        vec![
            Primitive::Sphere(Sphere::new(Vec3::new(0.0, 0.0, 5.0), 1.0, MaterialId(0))),
            Primitive::Sphere(Sphere::new(Vec3::new(0.0, 0.0, 10.0), 1.0, MaterialId(1))),
        ]
    }

    #[test]
    fn closest_hit_wins() {
        let prims = two_spheres();
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let (hit, _) = bvh.intersect(&ray, &prims);
        let hit = hit.expect("must hit");
        assert_eq!(hit.material, MaterialId(0));
        assert!((hit.t - 4.0).abs() < 1e-4);
    }

    #[test]
    fn miss_returns_none_with_stats() {
        let prims = two_spheres();
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, -Vec3::Z);
        let (hit, stats) = bvh.intersect(&ray, &prims);
        assert!(hit.is_none());
        assert!(stats.box_tests >= 1);
    }

    #[test]
    fn occlusion_early_out_tests_less() {
        let mut rng = Pcg::new(7);
        let mut prims: Vec<Primitive> = Vec::new();
        for _ in 0..200 {
            let c = Vec3::new(
                rng.range_f32(-5.0, 5.0),
                rng.range_f32(-5.0, 5.0),
                rng.range_f32(2.0, 20.0),
            );
            prims.push(Primitive::Sphere(Sphere::new(c, 0.4, MaterialId(0))));
        }
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let (occ, occ_stats) = bvh.occluded(&ray, &prims);
        let (hit, full_stats) = bvh.intersect(&ray, &prims);
        assert_eq!(occ, hit.is_some());
        if occ {
            assert!(occ_stats.work() <= full_stats.work());
        }
    }

    #[test]
    fn empty_bvh_traversal_terminates() {
        let prims: Vec<Primitive> = Vec::new();
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let (hit, stats) = bvh.intersect(&ray, &prims);
        assert!(hit.is_none());
        assert_eq!(stats.prim_tests, 0);
    }

    /// The closest `(t, primitive)` by testing every primitive: the
    /// reference any traversal must find.
    fn brute_force(prims: &[Primitive], ray: &Ray) -> Option<(f32, u32)> {
        let mut best: Option<(f32, u32)> = None;
        for (pi, p) in prims.iter().enumerate() {
            if let Some(t) = p.hit(ray) {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, pi as u32));
                }
            }
        }
        best
    }

    /// Rays outside the class of [`Ray::slab_finite`] take the reference
    /// slab test. Fused and stepped traversal agree on every one; where the
    /// ray touches a primitive properly they find what testing every
    /// primitive finds. Rows marked `grazes` pin the reference's behaviour
    /// on contacts it does not see, unchanged from before the fast class
    /// existed: a ray running in a box's face plane makes that slab
    /// `0 · ∞ = NaN` and the other bound `±∞`, so the box is missed and
    /// with it a sphere touching the face at a tangent; and a sphere test
    /// with an infinite direction reports a NaN distance.
    #[test]
    fn rays_outside_the_fast_class_match_the_brute_force_reference() {
        // Spheres of radius 0.5 on an integer grid in the z = 5 plane and a
        // floor triangle in y = -2: every box face lies on a known plane.
        let mut prims: Vec<Primitive> = Vec::new();
        for i in -2..=2 {
            for j in -2..=2 {
                let c = Vec3::new(i as f32, j as f32, 5.0);
                prims.push(Primitive::Sphere(Sphere::new(c, 0.5, MaterialId(0))));
            }
        }
        prims.push(Primitive::Triangle(Triangle::new(
            Vec3::new(-4.0, -2.0, 0.0),
            Vec3::new(4.0, -2.0, 0.0),
            Vec3::new(0.0, -2.0, 9.0),
            MaterialId(1),
        )));
        let bvh = Bvh::build(&prims);
        let (grazes, proper) = (true, false);
        let cases = [
            // Axis-parallel with the origin on face planes of sphere boxes:
            // between spheres, on the root box's edge, and past the spheres.
            (Vec3::new(0.5, 1.5, -1.0), Vec3::Z, proper),
            (Vec3::new(2.5, 2.5, -1.0), Vec3::Z, proper),
            (Vec3::new(0.5, 3.0, 4.9), -Vec3::Y, proper),
            // ... and meeting a sphere at its tangent point on that face.
            (Vec3::new(0.5, 0.0, -1.0), Vec3::Z, grazes),
            (Vec3::new(-2.5, 0.0, -1.0), Vec3::Z, grazes),
            (Vec3::new(0.0, 0.0, 4.5), Vec3::X, grazes),
            (Vec3::new(-3.0, 1.0, 5.5), Vec3::X, grazes),
            // Inside the floor's flat box (both of its y slabs NaN): along
            // the floor into a sphere, and beside the spheres.
            (Vec3::new(0.0, -2.0, -1.0), Vec3::Z, proper),
            (Vec3::new(-5.0, -2.0, 4.0), Vec3::X, proper),
            // Off every plane, two zero components.
            (Vec3::new(0.1, 0.2, -1.0), Vec3::Z, proper),
            // Subnormal components whose reciprocal overflows: off a plane,
            // and on one (the sphere's tangent again).
            (
                Vec3::new(0.2, 0.1, -1.0),
                Vec3::new(-1e-45, 1e-44, 1.0),
                proper,
            ),
            (
                Vec3::new(0.5, 0.0, -1.0),
                Vec3::new(1e-40, 0.0, 1.0),
                grazes,
            ),
            // An infinite component.
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::new(f32::INFINITY, 0.0, 1.0),
                grazes,
            ),
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::new(0.0, f32::NEG_INFINITY, 1.0),
                grazes,
            ),
        ];
        for (i, (origin, dir, grazing)) in cases.into_iter().enumerate() {
            let unbounded = Ray::new(origin, dir);
            assert!(!unbounded.slab_finite(unbounded.inv_dir()), "case {i}");
            if grazing {
                assert!(brute_force(&prims, &unbounded).is_some(), "case {i}");
            }
            for ray in [unbounded, Ray::segment(origin, dir, 5.2)] {
                let want = if grazing {
                    None
                } else {
                    brute_force(&prims, &ray)
                };
                let (hit, _) = bvh.intersect(&ray, &prims);
                assert_eq!(hit.map(|h| (h.t, h.primitive.0)), want, "case {i}");
                assert_eq!(bvh.occluded(&ray, &prims).0, want.is_some(), "case {i}");
                let (stepped, _) = step_drained(bvh.traverse(ray, &prims), false);
                assert_eq!(stepped.map(|h| (h.t, h.primitive.0)), want, "case {i}");
                assert_fused_matches_stepped(&bvh, &prims, ray);
            }
        }
    }

    #[test]
    fn stepwise_matches_brute_force() {
        let mut rng = Pcg::new(99);
        let mut prims: Vec<Primitive> = Vec::new();
        for _ in 0..300 {
            let base = Vec3::new(
                rng.range_f32(-8.0, 8.0),
                rng.range_f32(-8.0, 8.0),
                rng.range_f32(-8.0, 8.0),
            );
            prims.push(Primitive::Triangle(Triangle::new(
                base,
                base + Vec3::new(rng.next_f32() + 0.1, 0.0, rng.next_f32()),
                base + Vec3::new(0.0, rng.next_f32() + 0.1, rng.next_f32()),
                MaterialId(0),
            )));
        }
        let bvh = Bvh::build(&prims);
        for i in 0..64 {
            let mut r = Pcg::for_index(5, i);
            let origin = Vec3::new(r.range_f32(-12.0, 12.0), r.range_f32(-12.0, 12.0), -15.0);
            let dir = Vec3::new(r.range_f32(-0.3, 0.3), r.range_f32(-0.3, 0.3), 1.0).normalized();
            let ray = Ray::new(origin, dir);
            let (bvh_hit, _) = bvh.intersect(&ray, &prims);
            match (bvh_hit, brute_force(&prims, &ray)) {
                (Some(h), Some((t, pi))) => {
                    assert!((h.t - t).abs() < 1e-3, "ray {i}: t {} vs {}", h.t, t);
                    assert_eq!(h.primitive, PrimitiveId(pi), "ray {i}");
                }
                (None, None) => {}
                (a, b) => panic!("ray {i}: bvh {a:?} vs brute {b:?}"),
            }
        }
    }

    /// Triangles centred along the three axes at distances growing 17-fold,
    /// each large enough to reach back over the origin. On whichever axis is
    /// longest, all centroids but the farthest share the first SAH bin, so
    /// every split peels off exactly one triangle: the tree is a chain as
    /// deep as the builder allows, and every node's box holds the origin.
    fn axis_star() -> Vec<Primitive> {
        let mut prims = Vec::new();
        for step in 0..19 {
            let d = 1e-6 * 17f32.powi(step);
            for axis in [Vec3::X, Vec3::Y, Vec3::Z] {
                let c = axis * d;
                let (u, v) = (
                    Vec3::new(2.0, -1.5, 0.5) * d,
                    Vec3::new(-0.5, 2.0, -1.5) * d,
                );
                prims.push(Primitive::Triangle(Triangle::new(
                    c + u,
                    c + v,
                    c - u - v,
                    MaterialId(0),
                )));
            }
        }
        prims
    }

    /// Closest-hit traversal as it was before the inline stack: the same
    /// visit order and culling over a growable `Vec`.
    fn vec_stack_intersect(
        bvh: &Bvh,
        ray: &Ray,
        prims: &[Primitive],
    ) -> (Option<u32>, TraversalStats) {
        let inv_dir = ray.inv_dir();
        let mut stats = TraversalStats {
            box_tests: 1,
            ..TraversalStats::default()
        };
        let mut probe = *ray;
        let mut best = None;
        let mut stack = Vec::new();
        if bvh.nodes[0].bounds.hit(ray, inv_dir).is_some() {
            stack.push(0u32);
        }
        while let Some(idx) = stack.pop() {
            let node = bvh.nodes[idx as usize];
            if node.bounds.hit(&probe, inv_dir).is_none() {
                continue;
            }
            stats.nodes_visited += 1;
            if node.is_leaf() {
                stats.leaf_visits += 1;
                let first = node.first_prim() as usize;
                for &prim in &bvh.prim_order[first..first + node.prim_count() as usize] {
                    stats.prim_tests += 1;
                    if let Some(t) = prims[prim as usize].hit(&probe) {
                        probe.t_max = t;
                        best = Some(prim);
                    }
                }
                continue;
            }
            stats.box_tests += 2;
            let (left, right) = (idx + 1, node.right_child());
            let t_left = bvh.nodes[left as usize].bounds.hit(&probe, inv_dir);
            let t_right = bvh.nodes[right as usize].bounds.hit(&probe, inv_dir);
            match (t_left, t_right) {
                (Some(tl), Some(tr)) if tl <= tr => stack.extend([right, left]),
                (Some(_), Some(_)) => stack.extend([left, right]),
                (Some(_), None) => stack.push(left),
                (None, Some(_)) => stack.push(right),
                (None, None) => {}
            }
        }
        (best, stats)
    }

    #[test]
    fn deepest_allowed_tree_traverses_within_the_inline_stack() {
        let prims = axis_star();
        let bvh = Bvh::build(&prims);
        assert_eq!(bvh.depth(), MAX_DEPTH, "the star must reach the depth cap");
        let mut order = bvh.primitive_order().to_vec();
        order.sort_unstable();
        let all: Vec<u32> = (0..prims.len() as u32).collect();
        assert_eq!(order, all, "the capped branch's leaf keeps its primitives");
        let mut deepest_stack = 0;
        for i in 0..64 {
            // From beside the origin outwards: the ray starts inside every
            // node's box, so each level defers a sibling.
            let mut rng = Pcg::for_index(3, i);
            let origin = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()) * 1e-7;
            let ray = Ray::new(origin, uniform_sphere(&mut rng));
            let mut tr = bvh.traverse(ray, &prims);
            while tr.step().is_some() {
                deepest_stack = deepest_stack.max(tr.stack_len);
            }
            let (hit, stats) = step_drained(bvh.traverse(ray, &prims), false);
            let (want_hit, want_stats) = vec_stack_intersect(&bvh, &ray, &prims);
            assert_eq!(hit.map(|h| h.primitive.0), want_hit, "ray {i}");
            assert_eq!(stats, want_stats, "ray {i}");
            assert_fused_matches_stepped(&bvh, &prims, ray);
            assert_fused_matches_stepped(&bvh, &prims, Ray::segment(origin, ray.dir, 1e-3));
        }
        assert_eq!(
            deepest_stack as usize,
            MAX_DEPTH + 1,
            "the rays fill the whole stack"
        );
    }

    #[test]
    fn from_json_rejects_trees_the_stack_cannot_hold() {
        let bvh = Bvh::build(&axis_star());
        assert_eq!(Bvh::from_json(&bvh.to_json()).unwrap(), bvh);
        let leaf = FlatNode::leaf(Aabb::empty(), 0, 0);
        // A right child pointing back at its parent: traversal would cycle.
        let cyclic = Bvh {
            nodes: vec![FlatNode::interior(Aabb::empty(), 0, 0), leaf, leaf],
            prim_order: Vec::new(),
            depth: 0,
        };
        assert!(Bvh::from_json(&cyclic.to_json()).is_err());
        // A split axis past `u8` is rejected, not truncated to axis 0.
        let mut node = FlatNode::interior(Aabb::empty(), 2, 1).to_json();
        if let Value::Object(m) = &mut node {
            m.insert("axis".into(), Value::from(256u32));
        }
        assert!(FlatNode::from_json(&node).is_err());
        // A well-formed left spine of `levels` interior nodes: accepted up to
        // the stack's depth, rejected one level beyond it.
        let spine = |levels: u32| {
            let mut nodes: Vec<FlatNode> = (0..levels)
                .map(|i| FlatNode::interior(Aabb::empty(), 2 * levels - i, 0))
                .collect();
            nodes.resize(2 * levels as usize + 1, leaf);
            let json = Bvh {
                nodes,
                prim_order: Vec::new(),
                depth: 0,
            }
            .to_json();
            Bvh::from_json(&json).map(|bvh| bvh.depth())
        };
        assert_eq!(spine(MAX_DEPTH as u32).ok(), Some(MAX_DEPTH));
        assert!(spine(MAX_DEPTH as u32 + 1).is_err());
    }

    #[test]
    fn traversal_steps_enumerate_nodes_and_prims() {
        let prims = two_spheres();
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let mut tr = bvh.traverse(ray, &prims);
        let mut prim_tests = 0;
        let mut node_visits = 0;
        while let Some(step) = tr.step() {
            match step {
                TraversalStep::PrimitiveTest { .. } => prim_tests += 1,
                TraversalStep::InteriorNode { .. } | TraversalStep::LeafNode { .. } => {
                    node_visits += 1
                }
            }
        }
        let (_, stats) = bvh.intersect(&ray, &prims);
        assert_eq!(prim_tests as u64, stats.prim_tests);
        assert_eq!(node_visits as u64, stats.nodes_visited);
        assert!(tr.hit().is_some());
    }

    #[test]
    fn hot_traversal_fields_fill_one_cache_line() {
        assert_eq!(std::mem::offset_of!(Traversal<'_>, bvh), 64);
        assert_eq!(
            std::mem::size_of::<Traversal<'_>>(),
            64 + 24 + 4 * (MAX_DEPTH + 1)
        );
    }

    fn vec3(range: f32) -> impl Strategy<Value = Vec3> {
        (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn primitive() -> impl Strategy<Value = Primitive> {
        prop_oneof![
            (vec3(10.0), 0.05f32..2.0).prop_map(|(c, r)| Primitive::Sphere(Sphere::new(
                c,
                r,
                MaterialId(0)
            ))),
            (vec3(10.0), vec3(2.0), vec3(2.0)).prop_map(|(a, d1, d2)| {
                Primitive::Triangle(Triangle::new(
                    a,
                    a + d1 + Vec3::splat(0.01),
                    a + d2 - Vec3::splat(0.01),
                    MaterialId(0),
                ))
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fused queries behind `intersect` / `occluded` return what
        /// draining `step()` returns — hit and counters, ray for ray — for
        /// unbounded rays and for segments that end inside the scene. One
        /// ray in three has one or two exactly-zero direction components,
        /// so both slab-test classes are covered.
        #[test]
        fn fused_queries_match_the_step_machine(
            prims in prop::collection::vec(primitive(), 1..120),
            origin in vec3(15.0),
            dir in vec3(1.0),
            zero_axes in 0u8..18,
            t_max in 0.5f32..60.0,
        ) {
            // Bit `a` of `zero_axes` (when below 7) zeroes component `a`.
            let keep = |axis: u8| if zero_axes < 7 && zero_axes & (1 << axis) != 0 { 0.0 } else { 1.0 };
            let dir = dir.hadamard(Vec3::new(keep(0), keep(1), keep(2)));
            prop_assume!(dir.length() > 0.1);
            let bvh = Bvh::build(&prims);
            assert_fused_matches_stepped(&bvh, &prims, Ray::new(origin, dir.normalized()));
            assert_fused_matches_stepped(&bvh, &prims, Ray::segment(origin, dir.normalized(), t_max));
        }
    }
}
