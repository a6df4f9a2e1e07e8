//! Specification oracles for the ray-tracing front end and its GPU lanes,
//! over the public API only, each the textbook algorithm rather than a copy
//! of the code it checks: (a) a recursive front-to-back BVH traversal
//! ([`spec_query`]) over (c) a per-axis case analysis of the slab test
//! ([`spec_slab`]), and (b) a recursive path tracer ([`spec_pixel`]) whose
//! events give the pixel's [`PixelTrace`] ([`spec_trace`]) and, through
//! `rtworkload`'s event → op table, its GPU thread ([`spec_ops`]).

use std::sync::OnceLock;

use gpusim::workload::ScriptedWorkload;
use gpusim::{GpuConfig, Op, PhaseMix, SimStats, Simulator, Workload};
use minijson::ToJson;
use obs::{MetricsRegistry, ObsHooks, ObserveOptions};
use proptest::prelude::*;
use rtcore::bvh::{Bvh, TraversalStats, VisitSink, MAX_DEPTH};
use rtcore::geom::{Hit, Primitive, PrimitiveId, Sphere, Triangle};
use rtcore::material::{MaterialId, Surface};
use rtcore::math::{cosine_hemisphere, uniform_sphere, Aabb, Pcg, Ray, Vec3, RAY_EPSILON};
use rtcore::scene::Scene;
use rtcore::scenes::SceneId;
use rtcore::tracer::{trace_pixel, PixelTrace, TraceConfig};
use rtworkload::{AddressMap, Pixel, RtWorkload};

/// One observable step of tracing a pixel, in the path machine's order:
/// a sample's camera ray; a query's root box test and node and primitive
/// visits; a miss or a material hit; a shadow ray; the sample's radiance.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Camera,
    Root,
    Interior(u32),
    Leaf(u32),
    Prim(u32),
    Miss,
    Hit(MaterialId),
    Shadow,
    Sample(Vec3),
}

/// The recording sink.
#[derive(Default)]
struct Events(Vec<Event>);

impl VisitSink for Events {
    fn root(&mut self) {
        self.0.push(Event::Root);
    }

    fn interior(&mut self, node: u32) {
        self.0.push(Event::Interior(node));
    }

    fn leaf(&mut self, node: u32) {
        self.0.push(Event::Leaf(node));
    }

    fn prim(&mut self, prim: u32) {
        self.0.push(Event::Prim(prim));
    }
}

/// Specification (c): where `ray` enters `bounds`, axis by axis in plain
/// `f32` that never makes a NaN. A direction component that is zero, or
/// whose reciprocal overflows, admits the whole line if the origin lies in
/// the slab on that axis (its planes included) and nothing otherwise; any
/// other component admits the interval between the distances
/// `(plane - origin) * inv_dir` to the slab's two planes. The entry is the
/// largest of `t_min` and the lower ends, the exit the smallest of `t_max`
/// and the upper ends, and the ray enters if entry ≤ exit. The empty box
/// is missed.
///
/// `Aabb::hit` agrees for rays with at least one component whose plane
/// distances are finite, as every unit direction has: a ray with none may
/// also enter a box ahead of it "at infinity".
fn spec_slab(bounds: &Aabb, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
    if (0..3).any(|axis| bounds.min[axis] > bounds.max[axis]) {
        return None;
    }
    let (mut enter, mut exit) = (ray.t_min, ray.t_max);
    for axis in 0..3 {
        let (o, lo, hi) = (ray.origin[axis], bounds.min[axis], bounds.max[axis]);
        if ray.dir[axis] == 0.0 || inv_dir[axis].is_infinite() {
            if o < lo || o > hi {
                return None;
            }
        } else {
            let (t_lo, t_hi) = ((lo - o) * inv_dir[axis], (hi - o) * inv_dir[axis]);
            enter = enter.max(t_lo.min(t_hi));
            exit = exit.min(t_lo.max(t_hi));
        }
    }
    (enter <= exit).then_some(enter)
}

/// One query of specification (a): it reports the root, then each node it
/// enters, to `sink`; tests a leaf's primitives in `primitive_order`,
/// stopping at an any-hit query's first hit; slab-tests an interior node's
/// children with specification (c) against the closest hit so far, visits the
/// nearer first (left on ties) and skips the farther once the closest hit
/// is in front of its entry.
struct Query<'a, S> {
    bvh: &'a Bvh,
    prims: &'a [Primitive],
    any_hit: bool,
    /// The ray, its `t_max` the closest hit distance so far.
    probe: Ray,
    best: Option<(f32, u32)>,
    sink: S,
    /// Farther children deferred on the path to the current node, and the
    /// most nodes an explicit stack would have held at once.
    deferred: usize,
    deepest_stack: usize,
}

impl<S: VisitSink> Query<'_, S> {
    /// Visits the subtree at `index`; `true` once an any-hit query has hit.
    fn visit(&mut self, index: u32) -> bool {
        let node = self.bvh.nodes()[index as usize];
        if node.is_leaf() {
            self.sink.leaf(index);
            let first = node.first_prim() as usize;
            let order = &self.bvh.primitive_order()[first..first + node.prim_count() as usize];
            for &prim in order {
                self.sink.prim(prim);
                if let Some(t) = self.prims[prim as usize].hit(&self.probe) {
                    self.probe.t_max = t;
                    self.best = Some((t, prim));
                    if self.any_hit {
                        return true;
                    }
                }
            }
            return false;
        }
        self.sink.interior(index);
        let (probe, inv_dir) = (self.probe, self.probe.inv_dir());
        let enter = |child: u32| {
            let bounds = self.bvh.nodes()[child as usize].bounds();
            spec_slab(&bounds, &probe, inv_dir).map(|t| (child, t))
        };
        let (near, far) = match (enter(index + 1), enter(node.right_child())) {
            (Some(left), Some(right)) if right.1 < left.1 => (Some(right), Some(left)),
            (Some(left), right) => (Some(left), right),
            (None, right) => (right, None),
        };
        let pending = self.deferred + usize::from(far.is_some());
        let height = pending + usize::from(near.is_some());
        self.deepest_stack = self.deepest_stack.max(height);
        self.deferred = pending;
        let done = near.is_some_and(|(child, _)| self.visit(child));
        self.deferred -= usize::from(far.is_some());
        match far {
            _ if done => true,
            Some((_, t_enter)) if self.probe.t_max < t_enter => false,
            Some((child, _)) => self.visit(child),
            None => false,
        }
    }
}

/// Specification (a): the closest hit of `ray` (with `any_hit`, the first
/// found), each visit reported to `sink`, and the most nodes an explicit
/// stack would have held.
fn spec_query(
    bvh: &Bvh,
    prims: &[Primitive],
    ray: &Ray,
    any_hit: bool,
    sink: impl VisitSink,
) -> (Option<Hit>, usize) {
    let mut query = Query {
        bvh,
        prims,
        any_hit,
        probe: *ray,
        best: None,
        sink,
        deferred: 0,
        deepest_stack: 0,
    };
    query.sink.root();
    if spec_slab(&bvh.nodes()[0].bounds(), ray, ray.inv_dir()).is_some() {
        query.deepest_stack = 1;
        query.visit(0);
    }
    let hit = query.best.map(|(t, prim)| {
        let (primitive, point) = (&prims[prim as usize], ray.at(t));
        Hit {
            t,
            point,
            normal: primitive.shading_normal(point, ray.dir),
            material: primitive.material(),
            primitive: PrimitiveId(prim),
        }
    });
    (hit, query.deepest_stack)
}

/// Both queries of `ray` match specification (a) — visits, hit and
/// counters, closest-hit and any-hit. Returns the closest hit.
fn assert_queries_match_spec(bvh: &Bvh, prims: &[Primitive], ray: Ray) -> Option<(f32, u32)> {
    let mut closest = None;
    for any_hit in [false, true] {
        let (mut want, mut got) = (Events::default(), Events::default());
        let (hit, _) = spec_query(bvh, prims, &ray, any_hit, &mut want);
        let stats = spec_trace(&want.0, 1).stats;
        if any_hit {
            assert_eq!(bvh.occluded_with(&ray, prims, &mut got), hit.is_some());
            assert_eq!(bvh.occluded(&ray, prims), (hit.is_some(), stats));
        } else {
            assert_eq!(bvh.intersect_with(&ray, prims, &mut got), hit);
            assert_eq!(bvh.intersect(&ray, prims), (hit, stats));
            closest = hit.map(|h| (h.t, h.primitive.0));
        }
        assert_eq!(got.0, want.0, "visits of {ray:?} (any-hit: {any_hit})");
    }
    closest
}

/// Specification (b): the events of pixel `(x, y)` of a square frame
/// `size` pixels wide.
fn spec_pixel(scene: &Scene, x: u32, y: u32, size: u32, config: &TraceConfig) -> Vec<Event> {
    let mut tracer = Tracer {
        scene,
        rng: Pcg::for_index(config.seed, u64::from(y) * u64::from(size) + u64::from(x)),
        max_bounces: config.max_bounces,
        events: Events::default(),
    };
    for _ in 0..config.samples_per_pixel.max(1) {
        tracer.events.0.push(Event::Camera);
        let camera = scene.camera();
        let ray = camera.primary_ray(x, y, size, size, &mut tracer.rng);
        let mut radiance = Vec3::ZERO;
        tracer.path(ray, 0, Vec3::ONE, &mut radiance);
        tracer.events.0.push(Event::Sample(radiance));
    }
    tracer.events.0
}

struct Tracer<'s> {
    scene: &'s Scene,
    rng: Pcg,
    max_bounces: u32,
    events: Events,
}

impl Tracer<'_> {
    /// Traces `ray`, `bounce` bounces into a path of `throughput`, adding
    /// the light it gathers to `radiance`.
    fn path(&mut self, ray: Ray, bounce: u32, throughput: Vec3, radiance: &mut Vec3) {
        let (scene, prims) = (self.scene, self.scene.primitives());
        let (hit, _) = spec_query(scene.bvh(), prims, &ray, false, &mut self.events);
        let Some(hit) = hit else {
            self.events.0.push(Event::Miss);
            let sky = Vec3::ONE.lerp(Vec3::new(0.35, 0.55, 0.95), 0.5 * (ray.dir.y + 1.0));
            *radiance += throughput.hadamard(sky * 0.6);
            return;
        };
        let material = *scene.material(hit.material);
        self.events.0.push(Event::Hit(hit.material));
        let (n, origin) = (hit.normal, hit.point + hit.normal * RAY_EPSILON);
        let albedo = throughput.hadamard(material.color);
        let next = match material.surface {
            Surface::Emissive => {
                *radiance += albedo;
                return;
            }
            Surface::Diffuse => {
                // Next-event estimation towards one light.
                let lights = scene.lights();
                if !lights.is_empty() {
                    let light = lights[self.rng.next_below(lights.len())];
                    let to_light = light.position - hit.point;
                    let dist = to_light.length();
                    let dir = to_light / dist;
                    let cos = n.dot(dir);
                    if dist > RAY_EPSILON && cos > 0.0 {
                        self.events.0.push(Event::Shadow);
                        let shadow = Ray::segment(origin, dir, dist - 2.0 * RAY_EPSILON);
                        let (occluder, _) =
                            spec_query(scene.bvh(), prims, &shadow, true, &mut self.events);
                        if occluder.is_none() {
                            let falloff = 1.0 / (dist * dist).max(1e-3);
                            let scale = cos * falloff * lights.len() as f32 / std::f32::consts::PI;
                            *radiance += albedo.hadamard(light.intensity) * scale;
                        }
                    }
                }
                let dir = cosine_hemisphere(n, &mut self.rng);
                (Ray::new(origin, dir), albedo)
            }
            Surface::Mirror { fuzz } => {
                let mut dir = ray.dir.reflect(n);
                if fuzz > 0.0 {
                    let fuzzed = dir + uniform_sphere(&mut self.rng) * fuzz;
                    dir = fuzzed.try_normalized().unwrap_or(dir);
                }
                if dir.dot(n) <= 0.0 {
                    return;
                }
                (Ray::new(origin, dir), albedo)
            }
            Surface::Glass { ior } => {
                let cos_i = (-ray.dir).dot(n).clamp(0.0, 1.0);
                let r0 = ((1.0 - ior) / (1.0 + ior)).powi(2);
                let dir = if self.rng.next_f32() < r0 + (1.0 - r0) * (1.0 - cos_i).powi(5) {
                    ray.dir.reflect(n)
                } else {
                    let refracted = ray.dir.refract(n, 1.0 / ior);
                    refracted.unwrap_or_else(|| ray.dir.reflect(n))
                };
                let offset = if dir.dot(n) < 0.0 { -n } else { n };
                let ray = Ray::new(hit.point + offset * RAY_EPSILON, dir.normalized());
                (ray, throughput)
            }
        };
        let (ray, throughput) = next;
        let ended = throughput.max_component() < 1e-4 || bounce >= self.max_bounces;
        if !ended {
            self.path(ray, bounce + 1, throughput, radiance);
        }
    }
}

/// The trace derived from a pixel's `events`: a ray per query, the
/// counters of the visits and the mean of `spp` samples' radiance.
fn spec_trace(events: &[Event], spp: u32) -> PixelTrace {
    // Root box tests, interior nodes, leaves and primitive tests.
    let [mut roots, mut interiors, mut leaves, mut prims] = [0u64; 4];
    let mut color = Vec3::ZERO;
    for event in events {
        match *event {
            Event::Root => roots += 1,
            Event::Interior(_) => interiors += 1,
            Event::Leaf(_) => leaves += 1,
            Event::Prim(_) => prims += 1,
            Event::Sample(radiance) => color += radiance,
            Event::Camera | Event::Miss | Event::Hit(_) | Event::Shadow => {}
        }
    }
    let stats = TraversalStats {
        nodes_visited: interiors + leaves,
        box_tests: roots + 2 * interiors,
        prim_tests: prims,
        leaf_visits: leaves,
    };
    let (color, rays) = (color / spp.max(1) as f32, roots as u32);
    PixelTrace { color, stats, rays }
}

/// The GPU thread derived from `pixel`'s events through the event → op
/// table; a filtered pixel (`None`) runs the two-instruction exit.
fn spec_ops(scene: &Scene, pixel: Pixel, size: u32, events: Option<&[Event]>) -> Vec<Op> {
    let compute = |n| Op::Compute {
        cycles: n,
        insts: n,
    };
    let Some(events) = events else {
        return vec![compute(2)];
    };
    let map = AddressMap::default();
    let (node, prim) = (|addr| Op::RtNode { addr }, |addr| Op::RtPrim { addr });
    let mut ops = Vec::new();
    for event in events {
        match *event {
            Event::Camera => ops.push(compute(16)),
            Event::Interior(n) | Event::Leaf(n) => ops.push(node(map.node_addr(n))),
            Event::Prim(p) => ops.push(prim(map.prim_addr(p))),
            Event::Miss => ops.push(compute(4)),
            Event::Hit(id) => {
                let addr = map.material_addr(id.0);
                ops.extend([
                    Op::Load { addr, bytes: 32 },
                    compute(scene.material(id).shading_cost()),
                ]);
            }
            Event::Shadow => ops.push(compute(6)),
            Event::Root | Event::Sample(_) => {}
        }
    }
    let addr = map.pixel_addr(pixel.x, pixel.y, size);
    let bytes = map.pixel_stride as u32;
    ops.push(Op::Store { addr, bytes });
    ops
}

/// The specified thread of each pixel of `workload`, over a square frame
/// `size` pixels wide; `traced(i)` says whether thread `i` is traced.
fn spec_threads(
    workload: &RtWorkload<'_>,
    scene: &Scene,
    size: u32,
    trace: &TraceConfig,
    traced: impl Fn(usize) -> bool,
) -> Vec<Vec<Op>> {
    let thread = |(i, &p): (usize, &Pixel)| {
        let events = traced(i).then(|| spec_pixel(scene, p.x, p.y, size, trace));
        spec_ops(scene, p, size, events.as_deref())
    };
    workload.pixels().iter().enumerate().map(thread).collect()
}

fn drain(workload: &RtWorkload<'_>, thread: u64) -> Vec<Op> {
    let mut lane = workload.create_thread(thread);
    std::iter::from_fn(|| lane.next_op()).collect()
}

/// The eight registry scenes, built once.
fn scenes() -> &'static [Scene] {
    static SCENES: OnceLock<Vec<Scene>> = OnceLock::new();
    SCENES.get_or_init(|| SceneId::ALL.iter().map(|id| id.build(1)).collect())
}

/// The closest `(t, primitive)` by testing every primitive.
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

/// Asserts that `got`, a query's closest `(t, primitive)` along `ray`, is
/// `want`: the same distance, from a primitive that `ray` hits there
/// (where several tie, a query may report any).
fn assert_same_closest(
    prims: &[Primitive],
    ray: &Ray,
    got: Option<(f32, u32)>,
    want: Option<(f32, u32)>,
    case: &str,
) {
    assert_eq!(got.map(|(t, _)| t), want.map(|(t, _)| t), "{case}: {ray:?}");
    if let Some((t, prim)) = got {
        assert_eq!(prims[prim as usize].hit(ray), Some(t), "{case}: {ray:?}");
    }
}

/// Rays with zero, subnormal or infinite direction components, most of
/// them on slab planes. The queries match specification (a) on every one
/// and find what testing every primitive finds. Rows marked `grazes` run in
/// a box's face plane (a `0 · ∞ = NaN` slab distance, which leaves that axis
/// unconstrained) and meet a sphere at its tangent point on that face.
#[test]
fn rays_on_slab_planes_find_what_testing_every_primitive_finds() {
    let v = Vec3::new;
    // Spheres of radius 0.5 on an integer grid in the z = 5 plane and a
    // floor triangle in y = -2: every box face lies on a known plane.
    let grid = (-2..=2).flat_map(|i| (-2..=2).map(move |j| v(i as f32, j as f32, 5.0)));
    let mut prims: Vec<Primitive> = grid
        .map(|c| Primitive::Sphere(Sphere::new(c, 0.5, MaterialId(0))))
        .collect();
    let (a, b, c) = (v(-4.0, -2.0, 0.0), v(4.0, -2.0, 0.0), v(0.0, -2.0, 9.0));
    let floor = Triangle::new(a, b, c, MaterialId(1));
    prims.push(Primitive::Triangle(floor));
    let bvh = Bvh::build(&prims);
    let (grazes, proper) = (true, false);
    let cases = [
        // Axis-parallel with the origin on face planes of sphere boxes:
        // between spheres, on the root box's edge, and past the spheres.
        (v(0.5, 1.5, -1.0), Vec3::Z, proper),
        (v(2.5, 2.5, -1.0), Vec3::Z, proper),
        (v(0.5, 3.0, 4.9), -Vec3::Y, proper),
        // ... and meeting a sphere at its tangent point on that face.
        (v(0.5, 0.0, -1.0), Vec3::Z, grazes),
        (v(-2.5, 0.0, -1.0), Vec3::Z, grazes),
        (v(0.0, 0.0, 4.5), Vec3::X, grazes),
        (v(-3.0, 1.0, 5.5), Vec3::X, grazes),
        // Inside the floor's flat box (both of its y slabs NaN): along the
        // floor into a sphere, and beside the spheres.
        (v(0.0, -2.0, -1.0), Vec3::Z, proper),
        (v(-5.0, -2.0, 4.0), Vec3::X, proper),
        // Off every plane, two zero components.
        (v(0.1, 0.2, -1.0), Vec3::Z, proper),
        // Subnormal components whose reciprocal overflows: off a plane,
        // and on one (the sphere's tangent again).
        (v(0.2, 0.1, -1.0), v(-1e-45, 1e-44, 1.0), proper),
        (v(0.5, 0.0, -1.0), v(1e-40, 0.0, 1.0), grazes),
        // An infinite component: every box and every sphere is missed.
        (v(0.0, 0.0, -1.0), v(f32::INFINITY, 0.0, 1.0), proper),
        (v(0.0, 0.0, -1.0), v(0.0, f32::NEG_INFINITY, 1.0), proper),
    ];
    for (i, (origin, dir, grazing)) in cases.into_iter().enumerate() {
        let unbounded = Ray::new(origin, dir);
        if grazing {
            assert!(brute_force(&prims, &unbounded).is_some(), "case {i}");
        }
        for ray in [unbounded, Ray::segment(origin, dir, 5.2)] {
            let got = assert_queries_match_spec(&bvh, &prims, ray);
            let want = brute_force(&prims, &ray);
            assert_same_closest(&prims, &ray, got, want, &format!("case {i}"));
        }
    }
    // `Sphere::hit` along a direction with an infinite component: a NaN
    // discriminant or distance, so a miss.
    let sphere = Sphere::new(v(0.0, 0.0, 5.0), 0.5, MaterialId(0));
    for dir in [v(f32::INFINITY, 0.0, 1.0), v(0.0, 0.0, f32::INFINITY)] {
        assert_eq!(
            sphere.hit(&Ray::new(v(0.0, 0.0, -1.0), dir)),
            None,
            "{dir:?}"
        );
    }
    // An empty scene's root box is the empty box, which every ray misses:
    // each query counts its root test and no node.
    let empty = Bvh::build(&[]);
    let root_only = TraversalStats {
        box_tests: 1,
        ..TraversalStats::default()
    };
    for (origin, dir, _) in cases {
        let ray = Ray::new(origin, dir);
        assert_eq!(assert_queries_match_spec(&empty, &[], ray), None);
        assert_eq!(empty.intersect(&ray, &[]), (None, root_only));
    }
}

/// Triangles centred along the three axes at distances growing 17-fold,
/// each large enough to reach back over the origin. On whichever axis is
/// longest, all centroids but the farthest share the first SAH bin, so
/// every split peels off exactly one triangle: the tree is a chain as deep
/// as the builder allows, and every node's box holds the origin.
fn axis_star() -> Vec<Primitive> {
    let mut prims = Vec::new();
    for step in 0..19 {
        let d = 1e-6 * 17f32.powi(step);
        let u = Vec3::new(2.0, -1.5, 0.5) * d;
        let v = Vec3::new(-0.5, 2.0, -1.5) * d;
        for c in [Vec3::X * d, Vec3::Y * d, Vec3::Z * d] {
            let triangle = Triangle::new(c + u, c + v, c - u - v, MaterialId(0));
            prims.push(Primitive::Triangle(triangle));
        }
    }
    prims
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
        let (_, stack) = spec_query(&bvh, &prims, &ray, false, Events::default());
        deepest_stack = deepest_stack.max(stack);
        assert_queries_match_spec(&bvh, &prims, ray);
        assert_queries_match_spec(&bvh, &prims, Ray::segment(origin, ray.dir, 1e-3));
    }
    assert_eq!(deepest_stack, MAX_DEPTH + 1, "the rays fill the stack");
}

fn vec3(range: f32) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Solid boxes, boxes flat along one axis, single points and the empty
/// box.
fn any_box() -> impl Strategy<Value = Aabb> {
    let flat = |a: Vec3, b: Vec3, axis: usize| {
        let b = Aabb::from_corners(a, b);
        let top = |i: usize| if i == axis { b.min[i] } else { b.max[i] };
        Aabb::from_corners(b.min, Vec3::new(top(0), top(1), top(2)))
    };
    prop_oneof![
        (vec3(10.0), vec3(10.0)).prop_map(|(a, b)| Aabb::from_corners(a, b)),
        (vec3(10.0), vec3(10.0), 0usize..3).prop_map(move |(a, b, axis)| flat(a, b, axis)),
        vec3(10.0).prop_map(|p| Aabb::from_corners(p, p)),
        Just(Aabb::empty()),
    ]
}

/// A direction component: zero, subnormal (a reciprocal that overflows
/// below about 2.9e-39), or finite down to near the subnormal edge.
fn component() -> impl Strategy<Value = f32> {
    let magnitude = prop_oneof![
        Just(0.0f32),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        (1e-3f32..1.0, 0i32..40).prop_map(|(v, e)| v * 2f32.powi(-3 * e)),
    ];
    (magnitude, any::<bool>()).prop_map(|(m, negative)| if negative { -m } else { m })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `Aabb::hit` is specification (c): the same entry distance or the
    /// same miss (`==` on `Option<f32>` cannot see the sign of a zero, and
    /// every consumer of the entry distance only compares it). Origins sit
    /// on the box's slab planes, or a float outside them, on up to three
    /// axes; one direction component is ordinary, the others zero,
    /// subnormal or finite.
    #[test]
    fn the_slab_test_is_the_spec_slab(
        bounds in any_box(),
        free in vec3(10.0),
        planes in (0u8..6, 0u8..6, 0u8..6),
        dir in (component(), component(), component()),
        ordinary in (0usize..3, -1.0f32..1.0),
        t_min in prop_oneof![Just(RAY_EPSILON), Just(0.0f32), -5.0f32..5.0],
        t_max in prop_oneof![Just(f32::INFINITY), 0.0f32..30.0],
    ) {
        let (planes, dir) = ([planes.0, planes.1, planes.2], [dir.0, dir.1, dir.2]);
        // On a plane, or a float outside it.
        let on_plane = |axis: usize| match planes[axis] {
            0 if !bounds.is_empty() => bounds.min[axis],
            1 if !bounds.is_empty() => bounds.max[axis],
            2 if !bounds.is_empty() => bounds.min[axis].next_down(),
            3 if !bounds.is_empty() => bounds.max[axis].next_up(),
            _ => free[axis],
        };
        let (axis, value) = ordinary;
        let value = if value.abs() < 1e-3 { 1e-3 } else { value };
        let component = |i: usize| if i == axis { value } else { dir[i] };
        let ray = Ray {
            origin: Vec3::new(on_plane(0), on_plane(1), on_plane(2)),
            dir: Vec3::new(component(0), component(1), component(2)),
            t_min,
            t_max,
        };
        let inv_dir = ray.inv_dir();
        prop_assert_eq!(bounds.hit(&ray, inv_dir), spec_slab(&bounds, &ray, inv_dir));
    }
}

fn primitive() -> impl Strategy<Value = Primitive> {
    let (m, d) = (MaterialId(0), Vec3::splat(0.01));
    prop_oneof![
        (vec3(10.0), 0.05f32..2.0).prop_map(move |(c, r)| Primitive::Sphere(Sphere::new(c, r, m))),
        (vec3(10.0), vec3(2.0), vec3(2.0)).prop_map(move |(a, d1, d2)| {
            Primitive::Triangle(Triangle::new(a, a + d1 + d, a + d2 - d, m))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The queries visit, hit and count what specification (a) does, for
    /// unbounded rays and for segments that end inside the scene. One ray
    /// in three has one or two exactly-zero direction components, whose
    /// slab distances are infinite or NaN.
    #[test]
    fn queries_match_the_spec_traversal(
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
        assert_queries_match_spec(&bvh, &prims, Ray::new(origin, dir.normalized()));
        assert_queries_match_spec(&bvh, &prims, Ray::segment(origin, dir.normalized(), t_max));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each pixel traces as specification (b) says: `trace_pixel` adds up
    /// to what its events do, bit for bit (colour, rays and counters).
    #[test]
    fn the_path_machine_traces_as_the_spec(
        scene in 0usize..8,
        corner in (0u32..13, 0u32..13),
        spp in 0u32..4,
        max_bounces in 0u32..6,
        seed in any::<u64>(),
    ) {
        let trace = TraceConfig { samples_per_pixel: spp, max_bounces, seed };
        let scene = &scenes()[scene];
        let bits = |c: Vec3| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()];
        for i in 0..12 {
            let (x, y) = (corner.0 + i % 4, corner.1 + i / 4);
            let got = trace_pixel(scene, x, y, 16, 16, &trace);
            let spec = spec_trace(&spec_pixel(scene, x, y, 16, &trace), spp);
            prop_assert_eq!(bits(got.color), bits(spec.color));
            prop_assert_eq!((got.rays, got.stats), (spec.rays, spec.stats));
        }
    }

    /// Each lane yields the thread specification (b) derives from its
    /// pixel's events: drained whole, up to wherever it is dropped, and per
    /// warp phase across a slot reuse.
    #[test]
    fn lanes_yield_the_spec_op_stream(
        scene in 0usize..8,
        corner in (0u32..13, 0u32..13),
        spp in 0u32..4,
        max_bounces in 0u32..6,
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<bool>(), 12..13),
        filtered in any::<bool>(),
        cut in 0usize..300,
    ) {
        let trace = TraceConfig { samples_per_pixel: spp, max_bounces, seed };
        let scene = &scenes()[scene];
        let pixels = (0..12).map(|i| Pixel::new(corner.0 + i % 4, corner.1 + i / 4)).collect();
        let mut workload = RtWorkload::new(scene, 16, 16, trace, pixels);
        if filtered {
            workload = workload.with_selection(mask.clone());
        }
        let want = spec_threads(&workload, scene, 16, &trace, |i| !filtered || mask[i]);
        for (i, want) in want.iter().enumerate() {
            prop_assert_eq!(&drain(&workload, i as u64), want);
            // Dropped mid-ray: the prefix is the specification's prefix.
            let mut lane = workload.create_thread(i as u64);
            let prefix: Vec<Op> = (0..cut).map_while(|_| lane.next_op()).collect();
            prop_assert_eq!(&prefix[..], &want[..cut.min(want.len())]);
        }
        // One slot, launched twice over different lanes: each phase is
        // categorized as it is gathered (at the Mobile SoC's line size),
        // exactly as its ops would be.
        let mut warp = workload.warp_program();
        let (mut got, mut expect) = (PhaseMix::new(128), PhaseMix::new(128));
        for lanes in [0..12usize, 5..9] {
            warp.launch(lanes.start as u64, lanes.len() as u32);
            for phase in 0.. {
                got.clear();
                warp.gather(&mut got);
                expect.clear();
                let ops = want[lanes.clone()].iter().filter_map(|ops| ops.get(phase));
                ops.for_each(|&op| expect.push(op));
                prop_assert_eq!(&got, &expect, "phase {}", phase);
                if got.is_empty() {
                    break;
                }
            }
        }
    }
}

/// `SimStats`, the merged `ObsHooks` timeline (every phase, RT and DRAM
/// event with its arguments) and the exported registry of one run.
fn observe(config: &GpuConfig, workload: &dyn Workload) -> (SimStats, String, String) {
    let mut hooks = ObsHooks::for_gpu(0, "frame", config, &ObserveOptions::default());
    let stats = Simulator::new(config.clone()).run_with_hooks(workload, &mut hooks);
    let mut registry = MetricsRegistry::new();
    hooks.export(&stats, &mut registry);
    let timeline = hooks.take_timeline().expect("timeline on");
    let trace = obs::merge_trace(vec![timeline]).to_string();
    (stats, trace, registry.to_json().to_string())
}

/// A full 32×32 frame of `id` (1 spp, 2 bounces, seed 7, Mobile SoC): its
/// every thread is the specified one, and it runs through the engine
/// exactly as a `ScriptedWorkload` of the specified ops does.
fn assert_engine_sees_the_spec_run(id: SceneId) -> SimStats {
    let trace = TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 7,
    };
    let scene = id.build(1);
    let workload = RtWorkload::full_frame(&scene, 32, 32, trace);
    let want = spec_threads(&workload, &scene, 32, &trace, |_| true);
    for (i, want) in want.iter().enumerate() {
        assert!(drain(&workload, i as u64) == *want, "{id}: thread {i}");
    }
    let threads = want.len() as u64;
    let scripted = ScriptedWorkload::per_thread(threads, move |i| want[i as usize].clone());
    let config = GpuConfig::mobile_soc();
    let (stats, events, registry) = observe(&config, &workload);
    let (spec_stats, spec_events, spec_registry) = observe(&config, &scripted);
    assert_eq!(stats, spec_stats, "{id}: SimStats");
    // `assert!`, not `assert_eq!`: the texts run to megabytes.
    assert!(events == spec_events, "{id}: timeline events differ");
    assert_eq!(registry, spec_registry, "{id}: registry");
    stats
}

include!("golden/engine_rows.rs");

#[test]
fn engine_sees_the_spec_run_on_park_and_bath() {
    let rows = GOLDEN.into_iter();
    for (id, golden) in rows.filter(|(id, _)| matches!(id, SceneId::Park | SceneId::Bath)) {
        let s = assert_engine_sees_the_spec_run(id);
        let front = [s.cycles, s.instructions, s.warp_issues, s.l1_accesses];
        let misses = [s.l1_misses, s.l2_misses, s.dram_transactions];
        let got = [&front[..], &misses, &[s.rt_active_rays]].concat();
        assert_eq!(
            got, golden,
            "{id}: the golden row of tests/golden/engine_rows.rs"
        );
    }
}

#[test]
#[ignore = "all eight scenes; run in release: cargo test --release --test spec_oracles -- --ignored"]
fn engine_sees_the_spec_run_on_every_scene() {
    for id in SceneId::ALL {
        assert_engine_sees_the_spec_run(id);
    }
}

/// Rays along ±X, ±Y and ±Z from the vertices of up to
/// `PRIMS_PER_SCENE` primitives of every scene (a sphere's vertices are its
/// six poles). Each origin lies on a face of its primitive's box, and so on
/// a face of its leaf's box wherever the primitive is extreme in the leaf,
/// with two zero direction components: these rays run in face planes.
/// Both queries find what testing every primitive finds.
///
/// A triangle test may report a hit a rounding error outside the
/// triangle's own box: SHIP has a ray one ulp beside a vertex that hits.
/// No traversal of bounding boxes can be held to such a hit: a query may
/// miss a closest hit that lies outside its primitive's box at its
/// distance, and such rays must stay rare.
#[test]
#[ignore = "all eight scenes; run in release: cargo test --release --test spec_oracles -- --ignored"]
fn axis_rays_from_vertices_find_what_testing_every_primitive_finds() {
    const PRIMS_PER_SCENE: usize = 96;
    let axes = [Vec3::X, Vec3::Y, Vec3::Z];
    let (mut rays, mut missed_outside_a_box) = (0usize, 0usize);
    for (id, scene) in SceneId::ALL.into_iter().zip(scenes()) {
        let (bvh, prims) = (scene.bvh(), scene.primitives());
        for primitive in prims.iter().step_by(prims.len().div_ceil(PRIMS_PER_SCENE)) {
            let vertices = match *primitive {
                Primitive::Triangle(t) => vec![t.a, t.b, t.c],
                Primitive::Sphere(s) => {
                    let pole = |a: Vec3| [s.center + a * s.radius, s.center - a * s.radius];
                    axes.into_iter().flat_map(pole).collect()
                }
            };
            for origin in vertices {
                for dir in axes.into_iter().flat_map(|a| [a, -a]) {
                    let ray = Ray::new(origin, dir);
                    let want = brute_force(prims, &ray);
                    let (hit, _) = bvh.intersect(&ray, prims);
                    let got = hit.map(|h| (h.t, h.primitive.0));
                    let occluded = bvh.occluded(&ray, prims).0;
                    rays += 1;
                    if got.map(|(t, _)| t) == want.map(|(t, _)| t) && occluded == want.is_some() {
                        continue;
                    }
                    // A closest hit inside its primitive's box at its
                    // distance is inside every enclosing box by then: the
                    // traversal must have found it.
                    let (t, prim) = want.expect("a traversal reports only hits");
                    let at_hit = Ray {
                        t_min: t,
                        t_max: t,
                        ..ray
                    };
                    let bounds = prims[prim as usize].bounds();
                    let in_box = spec_slab(&bounds, &at_hit, ray.inv_dir()).is_some();
                    assert!(!in_box, "{id}: {ray:?} finds {got:?}, not {want:?}");
                    missed_outside_a_box += 1;
                }
            }
        }
    }
    eprintln!("{rays} rays, {missed_outside_a_box} missing a closest hit outside its box");
    assert!(
        missed_outside_a_box * 100 <= rays,
        "{missed_outside_a_box} of {rays}"
    );
}
