//! The stepwise BVH traversal `rtcore` shipped before its one traversal
//! loop learned to report its visits to a sink: a state machine
//! ([`Traversal`]) yielding one [`TraversalStep`] per node fetch or primitive
//! test, which the lanes of this crate stepped an op at a time (the
//! `reference` lane still does). Kept verbatim — over `Bvh`'s public
//! accessors in place of its private fields — as the oracle the fused loop's
//! visit sequence is held to, ray for ray, closest-hit and any-hit.
//!
//! The tests' scene fixtures (`two_spheres`, `axis_star`) and their
//! `brute_force` reference are copies of those in `rtcore`'s BVH tests,
//! which are private to that crate's test build; the duplication is
//! deliberate.

use rtcore::bvh::{Bvh, TraversalStats, VisitSink, MAX_DEPTH};
use rtcore::geom::{Hit, Primitive, PrimitiveId};
use rtcore::math::{Aabb, Ray, Vec3};

/// `Bvh::traverse` and `Bvh::traverse_any` as they were.
pub(crate) trait Traverse {
    /// Starts a stepwise traversal of `ray`.
    fn traverse<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a>;

    /// Starts a stepwise *any-hit* traversal (shadow/occlusion query):
    /// stepping ends as soon as any intersection is found.
    fn traverse_any<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a>;
}

impl Traverse for Bvh {
    fn traverse<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a> {
        Traversal::new(self, ray, prims)
    }

    fn traverse_any<'a>(&'a self, ray: Ray, prims: &'a [Primitive]) -> Traversal<'a> {
        Traversal::new_any_hit(self, ray, prims)
    }
}

/// One observable step of BVH traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraversalStep {
    /// An interior node was fetched and its children box-tested.
    InteriorNode {
        /// Index of the node in `Bvh::nodes`.
        node: u32,
    },
    /// A leaf node was fetched.
    LeafNode {
        /// Index of the node in `Bvh::nodes`.
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

/// Stepwise ray traversal over a [`Bvh`].
///
/// Call [`Traversal::step`] until it returns `None`, then read the result via
/// [`Traversal::hit`]. Each step performs the actual intersection math, so
/// consumers observe real traversal behaviour, not a replay.
///
/// The timing simulator kept one of these per resident GPU thread and
/// stepped thousands of them in turn, so the layout was fixed: what every
/// step reads or writes fills the first 64 bytes, and the node stack — whose
/// deep end most rays never reach — comes last.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Traversal<'a> {
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
        let stack_len = bvh.nodes()[0].bounds().hit(&ray, inv_dir).is_some() as u8;
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
    pub(crate) fn step(&mut self) -> Option<TraversalStep> {
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
            let prim_index = self.bvh.primitive_order()[cursor as usize];
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
            if slab::<FINITE>(
                &self.bvh.nodes()[idx as usize].bounds(),
                &probe,
                self.inv_dir,
            )
            .is_some()
            {
                break idx;
            }
        };

        let node = &self.bvh.nodes()[node_index as usize];
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
        let t_left = slab::<FINITE>(
            &self.bvh.nodes()[left as usize].bounds(),
            &probe,
            self.inv_dir,
        );
        let t_right = slab::<FINITE>(
            &self.bvh.nodes()[right as usize].bounds(),
            &probe,
            self.inv_dir,
        );
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
    pub(crate) fn ray(&self) -> Ray {
        self.ray
    }

    /// Whether any hit has been found so far.
    pub(crate) fn hit_found(&self) -> bool {
        self.best_prim != NO_PRIM
    }

    /// Resolves the closest hit found, if any. Call after draining
    /// [`Traversal::step`]; calling earlier returns the best hit so far.
    pub(crate) fn hit(&self) -> Option<Hit> {
        self.hit_found()
            .then(|| resolve_hit(&self.ray, self.prims, self.best_t, self.best_prim))
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtcore::geom::{Sphere, Triangle};
    use rtcore::material::MaterialId;
    use rtcore::math::{uniform_sphere, Pcg};

    /// Drains `tr` step by step (`to_first_hit`: only until something is
    /// hit, as a shadow query does), deriving the counters from the steps
    /// alone: the reference the fused loop must equal.
    fn step_drained(
        mut tr: Traversal<'_>,
        to_first_hit: bool,
    ) -> (Option<Hit>, TraversalStats, Vec<TraversalStep>) {
        let mut stats = TraversalStats {
            box_tests: 1,
            ..TraversalStats::default()
        };
        let mut steps = Vec::new();
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
            steps.push(step);
            if to_first_hit && tr.hit_found() {
                break;
            }
        }
        (tr.hit(), stats, steps)
    }

    /// `step` as a [`VisitSink`] sees it: the fused loop reports which
    /// primitive it tested, not whether it hit. The final hit and the
    /// counters pin the hits.
    fn visit(step: TraversalStep) -> TraversalStep {
        match step {
            TraversalStep::PrimitiveTest { prim, .. } => {
                TraversalStep::PrimitiveTest { prim, hit: false }
            }
            node => node,
        }
    }

    /// A sink that spells the fused loop's visits as the steps the state
    /// machine yields, up to [`visit`].
    struct Steps<'a> {
        bvh: &'a Bvh,
        steps: Vec<TraversalStep>,
    }

    impl VisitSink for Steps<'_> {
        fn interior(&mut self, node: u32) {
            self.steps.push(TraversalStep::InteriorNode { node });
        }

        fn leaf(&mut self, node: u32) {
            let count = self.bvh.nodes()[node as usize].prim_count();
            self.steps.push(TraversalStep::LeafNode { node, count });
        }

        fn prim(&mut self, prim: u32) {
            let prim = PrimitiveId(prim);
            self.steps
                .push(TraversalStep::PrimitiveTest { prim, hit: false });
        }
    }

    /// Fused and stepped queries agree on `ray`, closest-hit and any-hit:
    /// the hit, the counters, and the visit sequence step for step.
    fn assert_fused_matches_stepped(bvh: &Bvh, prims: &[Primitive], ray: Ray) {
        let mut fused = Steps {
            bvh,
            steps: Vec::new(),
        };
        let visits = |steps: Vec<TraversalStep>| steps.into_iter().map(visit).collect::<Vec<_>>();
        let (hit, stats, steps) = step_drained(bvh.traverse(ray, prims), false);
        assert_eq!(bvh.intersect(&ray, prims), (hit, stats), "closest hit");
        assert_eq!(bvh.intersect_with(&ray, prims, &mut fused), hit);
        assert_eq!(fused.steps, visits(steps), "closest-hit visits");
        fused.steps.clear();
        let (hit, stats, steps) = step_drained(bvh.traverse_any(ray, prims), true);
        assert_eq!(bvh.occluded(&ray, prims), (hit.is_some(), stats), "any hit");
        assert_eq!(bvh.occluded_with(&ray, prims, &mut fused), hit.is_some());
        assert_eq!(fused.steps, visits(steps), "any-hit visits");
    }

    fn two_spheres() -> Vec<Primitive> {
        vec![
            Primitive::Sphere(Sphere::new(Vec3::new(0.0, 0.0, 5.0), 1.0, MaterialId(0))),
            Primitive::Sphere(Sphere::new(Vec3::new(0.0, 0.0, 10.0), 1.0, MaterialId(1))),
        ]
    }

    #[test]
    fn traversal_steps_enumerate_nodes_and_prims() {
        let prims = two_spheres();
        let bvh = Bvh::build(&prims);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let (hit, _, steps) = step_drained(bvh.traverse(ray, &prims), false);
        let prim_tests = steps
            .iter()
            .filter(|s| matches!(s, TraversalStep::PrimitiveTest { .. }))
            .count();
        let (_, stats) = bvh.intersect(&ray, &prims);
        assert_eq!(prim_tests as u64, stats.prim_tests);
        assert_eq!((steps.len() - prim_tests) as u64, stats.nodes_visited);
        assert!(hit.is_some());
        assert_fused_matches_stepped(&bvh, &prims, ray);
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
                let (stepped, _, _) = step_drained(bvh.traverse(ray, &prims), false);
                assert_eq!(stepped.map(|h| (h.t, h.primitive.0)), want, "case {i}");
                assert_fused_matches_stepped(&bvh, &prims, ray);
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
        if bvh.nodes()[0].bounds().hit(ray, inv_dir).is_some() {
            stack.push(0u32);
        }
        while let Some(idx) = stack.pop() {
            let node = bvh.nodes()[idx as usize];
            if node.bounds().hit(&probe, inv_dir).is_none() {
                continue;
            }
            stats.nodes_visited += 1;
            if node.is_leaf() {
                stats.leaf_visits += 1;
                let first = node.first_prim() as usize;
                for &prim in &bvh.primitive_order()[first..first + node.prim_count() as usize] {
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
            let t_left = bvh.nodes()[left as usize].bounds().hit(&probe, inv_dir);
            let t_right = bvh.nodes()[right as usize].bounds().hit(&probe, inv_dir);
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
            let (hit, stats, _) = step_drained(bvh.traverse(ray, &prims), false);
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

        /// The fused queries return what draining `step()` returns — hit,
        /// counters and the visit sequence, ray for ray — for unbounded rays
        /// and for segments that end inside the scene. One ray in three has
        /// one or two exactly-zero direction components, so both slab-test
        /// classes are covered.
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
