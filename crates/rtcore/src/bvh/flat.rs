//! Flattened BVH storage and its one traversal loop.
//!
//! A query runs a ray through the tree in one fused loop and reports its
//! root box test, each node it fetches and each primitive it tests, in
//! visit order, to a [`VisitSink`]: [`TraversalStats`] counts them
//! ([`Bvh::intersect`], [`Bvh::occluded`]), and the tracer's path machine
//! hands them to its sink — counting for the profiler, recording a memory
//! transaction per visit for the timing simulator (`zatel-rtworkload`). One
//! loop for both is what makes the functional and timing models agree on
//! exactly which work a ray performs.
//!
//! Every box test of the loop, for every ray, is the one slab test
//! [`Aabb::hit`], run on the `[min, max]` corners a node stores. The loop
//! takes one exact shortcut, invisible to a sink: a popped node is
//! re-tested only if a hit has shrunk the interval since it was pushed, by
//! comparing the entry distance it stacked.

use crate::geom::{Hit, Primitive, PrimitiveId};
use crate::math::{slab, Aabb, Ray, Vec3};
use minijson::{FromJson, JsonError, ToJson, Value};

/// A node of the flattened BVH.
///
/// Interior nodes keep their left child at `self + 1` (depth-first layout)
/// and store the right child index; leaves store a range into the
/// primitive-order array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Bounding box as its `[min, max]` corners, which the slab test
    /// indexes by the sign of the ray's direction.
    corners: [Vec3; 2],
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
            corners: [bounds.min, bounds.max],
            first_or_right: first,
            count,
            axis: 0,
            leaf: true,
        }
    }

    /// Creates an interior node whose right child is at `right`.
    pub fn interior(bounds: Aabb, right: u32, axis: u8) -> Self {
        FlatNode {
            corners: [bounds.min, bounds.max],
            first_or_right: right,
            count: 0,
            axis,
            leaf: false,
        }
    }

    /// Bounding box of the node.
    pub fn bounds(&self) -> Aabb {
        let [min, max] = self.corners;
        Aabb { min, max }
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

    /// The node of a subtree laid out `by` nodes further on: an interior
    /// node's right child moves with it.
    pub(super) fn shifted(mut self, by: u32) -> Self {
        if !self.leaf {
            self.first_or_right += by;
        }
        self
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
    /// Total abstract work units; the per-pixel cost metric profiled into
    /// the heatmap.
    pub(crate) fn work(&self) -> u64 {
        self.nodes_visited + self.box_tests + 2 * self.prim_tests
    }
}

/// Receives a BVH query's work as it happens, in visit order: the root box
/// test, then each node fetched and — for a leaf — each of its primitives
/// tested, up to the first hit of an any-hit query.
pub trait VisitSink {
    /// The query tested the root's box: once, first, whatever it visits.
    fn root(&mut self) {}
    /// Interior node `node` was fetched and both its children box-tested.
    fn interior(&mut self, node: u32);
    /// Leaf `node` was fetched; its primitives are tested next.
    fn leaf(&mut self, node: u32);
    /// Scene primitive `prim` was fetched and intersection-tested.
    fn prim(&mut self, prim: u32);
}

/// The counting sink: what a query's visits add up to.
impl VisitSink for TraversalStats {
    #[inline(always)]
    fn root(&mut self) {
        self.box_tests += 1;
    }

    #[inline(always)]
    fn interior(&mut self, _node: u32) {
        self.nodes_visited += 1;
        self.box_tests += 2;
    }

    #[inline(always)]
    fn leaf(&mut self, _node: u32) {
        self.nodes_visited += 1;
        self.leaf_visits += 1;
    }

    #[inline(always)]
    fn prim(&mut self, _prim: u32) {
        self.prim_tests += 1;
    }
}

impl<S: VisitSink + ?Sized> VisitSink for &mut S {
    #[inline(always)]
    fn root(&mut self) {
        (**self).root();
    }

    #[inline(always)]
    fn interior(&mut self, node: u32) {
        (**self).interior(node);
    }

    #[inline(always)]
    fn leaf(&mut self, node: u32) {
        (**self).leaf(node);
    }

    #[inline(always)]
    fn prim(&mut self, prim: u32) {
        (**self).prim(prim);
    }
}

/// A node's corners on the wire: the `bounds` box.
fn write_bounds(corners: &[Vec3; 2], map: &mut minijson::Map) {
    let [min, max] = *corners;
    map.insert("bounds".into(), Aabb { min, max }.to_json());
}

/// The `bounds` box of a node on the wire, as corners.
fn read_bounds(value: &Value, ty: &str) -> Result<[Vec3; 2], JsonError> {
    let bounds: Aabb = minijson::field(value, ty, "bounds")?;
    Ok([bounds.min, bounds.max])
}

minijson::record! {
    FlatNode {
        corners: with(write_bounds, read_bounds),
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

/// Deepest node level a [`Bvh`] may have (root = 0). The traversal loop keeps
/// its stack inline: ordered depth-first traversal defers at most one sibling
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

    /// [`Bvh::build`] with a lent thread: the same tree, bit for bit, built
    /// on the calling thread and, when `lend` starts one, a spare thread.
    ///
    /// `lend(main, help)` must call `main(start)` on the calling thread and
    /// return once it and any helper have returned; `start()` may run `help`
    /// on another thread (the shape of `gpusim::Simulator::run_helped`'s
    /// lender). The top of the tree is split serially into subtrees that
    /// both threads then claim one at a time, so a `start` that runs nothing
    /// only loses the speed.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the helper, through `lend`.
    pub fn build_lent(
        prims: &[Primitive],
        lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
    ) -> Self {
        super::build::build_bvh_lent(prims, lend)
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

    /// Finds the closest hit, with the counters of the visits it took.
    pub fn intersect(&self, ray: &Ray, prims: &[Primitive]) -> (Option<Hit>, TraversalStats) {
        self.closest(ray, prims, TraversalStats::default())
    }

    /// Returns `true` if anything occludes the ray segment (early-out
    /// any-hit query used for shadow rays), with the counters of the visits
    /// up to the first hit.
    pub fn occluded(&self, ray: &Ray, prims: &[Primitive]) -> (bool, TraversalStats) {
        let (found, stats) = self.query(ray, prims, true, TraversalStats::default());
        (found.is_some(), stats)
    }

    /// [`Bvh::intersect`], reporting each visit to `sink` instead of
    /// counting it.
    pub fn intersect_with(
        &self,
        ray: &Ray,
        prims: &[Primitive],
        sink: &mut impl VisitSink,
    ) -> Option<Hit> {
        self.closest(ray, prims, sink).0
    }

    /// [`Bvh::occluded`], reporting each visit to `sink` instead of
    /// counting it.
    pub fn occluded_with(&self, ray: &Ray, prims: &[Primitive], sink: &mut impl VisitSink) -> bool {
        self.query(ray, prims, true, sink).0.is_some()
    }

    /// [`Bvh::intersect_with`], moving `sink` through the loop by value.
    pub(crate) fn closest<S: VisitSink>(
        &self,
        ray: &Ray,
        prims: &[Primitive],
        sink: S,
    ) -> (Option<Hit>, S) {
        let (found, sink) = self.query(ray, prims, false, sink);
        let hit = found.map(|(t, prim)| resolve_hit(ray, prims, t, prim));
        (hit, sink)
    }

    /// The traversal loop: ordered depth-first, near child first, reporting
    /// every visit to `sink` and returning it with the closest
    /// `(t, primitive)`, or with `any_hit` the first one found. The sink is
    /// held by value, so the counting sink's fields stay in registers.
    ///
    /// Stack entries carry the distance at which the ray enters their box.
    /// A deferred node passed `t_enter <= min(t_far, t_max)` when it was
    /// pushed and only `t_max` has shrunk since, so whether it is still
    /// worth visiting is the single comparison below rather than a second
    /// slab test.
    pub(crate) fn query<S: VisitSink>(
        &self,
        ray: &Ray,
        prims: &[Primitive],
        any_hit: bool,
        mut sink: S,
    ) -> (Option<(f32, u32)>, S) {
        let inv_dir = ray.inv_dir();
        sink.root();
        // `probe.t_max` is the closest hit distance so far.
        let mut probe = *ray;
        let mut best = None;
        let mut stack = [(0u32, 0f32); MAX_DEPTH + 1];
        let mut len = 0;
        if let Some(t_enter) = slab(&self.nodes[0].corners, ray, inv_dir) {
            stack[0] = (0, t_enter);
            len = 1;
        }
        while len > 0 {
            len -= 1;
            let (index, t_enter) = stack[len];
            if probe.t_max < t_enter {
                continue;
            }
            let node = &self.nodes[index as usize];
            if node.leaf {
                sink.leaf(index);
                let first = node.first_or_right as usize;
                for &prim in &self.prim_order[first..first + node.count as usize] {
                    sink.prim(prim);
                    if let Some(t) = prims[prim as usize].hit(&probe) {
                        probe.t_max = t;
                        best = Some((t, prim));
                        if any_hit {
                            return (best, sink);
                        }
                    }
                }
                continue;
            }
            // Interior: box-test both children, push hits far-then-near.
            sink.interior(index);
            let (left, right) = (index + 1, node.first_or_right);
            let t_left = slab(&self.nodes[left as usize].corners, &probe, inv_dir);
            let t_right = slab(&self.nodes[right as usize].corners, &probe, inv_dir);
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
        (best, sink)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::reference::axis_star;
    use crate::geom::{Sphere, Triangle};
    use crate::material::MaterialId;
    use crate::math::Pcg;

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

    #[test]
    fn closest_hit_matches_brute_force() {
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
}
