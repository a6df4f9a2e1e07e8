//! The lane this crate shipped before it learned to run ahead: one boxed
//! program per thread, a 16-byte-`Op` `VecDeque` for shading ops, and a
//! traversal stepped exactly one op per `next_op` call. Kept verbatim as the
//! oracle the run-ahead lane's op stream is compared against, op for op.

use std::collections::VecDeque;

use gpusim::{Op, ThreadProgram};
use rtcore::geom::Hit;
use rtcore::material::Surface;
use rtcore::math::{cosine_hemisphere, uniform_sphere, Pcg, Ray, Vec3, RAY_EPSILON};
use rtcore::scene::Scene;
use rtcore::tracer::TraceConfig;

use super::traversal::{Traversal, TraversalStep, Traverse};
use super::{AddressMap, Pixel, RtWorkload};

/// `Workload::create_thread` as it was: the reference program of thread
/// `index`.
pub(crate) fn create_thread<'w>(
    workload: &'w RtWorkload<'_>,
    index: u64,
) -> Box<dyn ThreadProgram + 'w> {
    let pixel = workload.pixels[index as usize];
    if let Some(sel) = &workload.selected {
        if !sel[index as usize] {
            return Box::new(FilterExit::new());
        }
    }
    Box::new(PixelProgram::new(
        workload.scene,
        pixel,
        workload.width,
        workload.height,
        workload.trace,
        workload.map,
    ))
}

/// The two-instruction early-exit program run by filtered-out pixels
/// (mirrors the injected PTX of the paper's Listing 1).
#[derive(Debug)]
struct FilterExit {
    emitted: bool,
}

impl FilterExit {
    fn new() -> Self {
        FilterExit { emitted: false }
    }
}

impl ThreadProgram for FilterExit {
    fn next_op(&mut self) -> Option<Op> {
        if self.emitted {
            None
        } else {
            self.emitted = true;
            // filter_shader + exit.
            Some(Op::Compute {
                cycles: 2,
                insts: 2,
            })
        }
    }
}

/// Continuation data for a diffuse bounce paused on its shadow ray.
#[derive(Debug, Clone, Copy)]
struct DiffuseResume {
    point: Vec3,
    normal: Vec3,
    bounce: u32,
}

enum State<'s> {
    StartSample,
    Path {
        tr: Traversal<'s>,
        bounce: u32,
    },
    Shadow {
        tr: Traversal<'s>,
        resume: DiffuseResume,
    },
    Finished,
}

/// Lazy per-pixel thread program: replays the exact path-tracing control
/// flow of [`rtcore::tracer`] while emitting one [`Op`] per unit of work.
struct PixelProgram<'s> {
    scene: &'s Scene,
    map: AddressMap,
    pixel: Pixel,
    width: u32,
    height: u32,
    spp: u32,
    max_bounces: u32,
    rng: Pcg,
    sample: u32,
    throughput: Vec3,
    queue: VecDeque<Op>,
    state: State<'s>,
}

impl<'s> PixelProgram<'s> {
    fn new(
        scene: &'s Scene,
        pixel: Pixel,
        width: u32,
        height: u32,
        trace: TraceConfig,
        map: AddressMap,
    ) -> Self {
        let rng = Pcg::for_index(trace.seed, pixel.y as u64 * width as u64 + pixel.x as u64);
        PixelProgram {
            scene,
            map,
            pixel,
            width,
            height,
            spp: trace.samples_per_pixel.max(1),
            max_bounces: trace.max_bounces,
            rng,
            sample: 0,
            throughput: Vec3::ONE,
            queue: VecDeque::new(),
            state: State::StartSample,
        }
    }

    fn op_of(map: &AddressMap, step: TraversalStep) -> Op {
        match step {
            TraversalStep::InteriorNode { node } | TraversalStep::LeafNode { node, .. } => {
                Op::RtNode {
                    addr: map.node_addr(node),
                }
            }
            TraversalStep::PrimitiveTest { prim, .. } => Op::RtPrim {
                addr: map.prim_addr(prim.0),
            },
        }
    }

    /// Ends the current path; moves on to the next sample.
    fn end_path(&mut self) {
        self.throughput = Vec3::ONE;
        self.state = State::StartSample;
    }

    /// Resolves a finished primary/bounce traversal — its closest `hit` and
    /// the `incoming` ray direction — mirroring `rtcore::tracer` decision
    /// for decision (and RNG draw for RNG draw).
    fn resolve_path_hit(&mut self, hit: Option<Hit>, incoming: Vec3, bounce: u32) {
        let Some(hit) = hit else {
            // Sky: small shade cost, path ends.
            self.queue.push_back(Op::Compute {
                cycles: 4,
                insts: 4,
            });
            self.end_path();
            return;
        };

        let material = *self.scene.material(hit.material);
        // Material fetch + shading ALU work.
        self.queue.push_back(Op::Load {
            addr: self.map.material_addr(hit.material.0),
            bytes: 32,
        });
        let cost = material.shading_cost();
        self.queue.push_back(Op::Compute {
            cycles: cost,
            insts: cost,
        });

        match material.surface {
            Surface::Emissive => {
                self.end_path();
            }
            Surface::Diffuse => {
                let mut shadow: Option<Traversal<'s>> = None;
                if !self.scene.lights().is_empty() {
                    let light = self.scene.lights()[self.rng.next_below(self.scene.lights().len())];
                    let to_light = light.position - hit.point;
                    let dist = to_light.length();
                    if dist > RAY_EPSILON {
                        let dir = to_light / dist;
                        let cos = hit.normal.dot(dir);
                        if cos > 0.0 {
                            let ray = Ray::segment(
                                hit.point + hit.normal * RAY_EPSILON,
                                dir,
                                dist - 2.0 * RAY_EPSILON,
                            );
                            // Shadow-ray setup cost.
                            self.queue.push_back(Op::Compute {
                                cycles: 6,
                                insts: 6,
                            });
                            shadow =
                                Some(self.scene.bvh().traverse_any(ray, self.scene.primitives()));
                        }
                    }
                }
                let resume = DiffuseResume {
                    point: hit.point,
                    normal: hit.normal,
                    bounce,
                };
                self.throughput = self.throughput.hadamard(material.color);
                match shadow {
                    Some(tr) => self.state = State::Shadow { tr, resume },
                    None => self.continue_after_diffuse(resume),
                }
            }
            Surface::Mirror { fuzz } => {
                self.throughput = self.throughput.hadamard(material.color);
                let mut dir = incoming.reflect(hit.normal);
                if fuzz > 0.0 {
                    dir = (dir + uniform_sphere(&mut self.rng) * fuzz)
                        .try_normalized()
                        .unwrap_or(dir);
                }
                if dir.dot(hit.normal) <= 0.0 {
                    self.end_path();
                    return;
                }
                let ray = Ray::new(hit.point + hit.normal * RAY_EPSILON, dir);
                self.continue_bounce(ray, bounce);
            }
            Surface::Glass { ior } => {
                let eta = 1.0 / ior;
                let cos_i = (-incoming).dot(hit.normal).clamp(0.0, 1.0);
                let reflect_prob = schlick(cos_i, ior);
                let dir = if self.rng.next_f32() < reflect_prob {
                    incoming.reflect(hit.normal)
                } else {
                    match incoming.refract(hit.normal, eta) {
                        Some(t) => t,
                        None => incoming.reflect(hit.normal),
                    }
                };
                let offset = if dir.dot(hit.normal) < 0.0 {
                    -hit.normal
                } else {
                    hit.normal
                };
                let ray = Ray::new(hit.point + offset * RAY_EPSILON, dir.normalized());
                self.continue_bounce(ray, bounce);
            }
        }
    }

    /// After a shadow query, finish the diffuse bounce: hemisphere sample
    /// and the next path segment (matching the tracer's RNG order).
    fn continue_after_diffuse(&mut self, resume: DiffuseResume) {
        let dir = cosine_hemisphere(resume.normal, &mut self.rng);
        let ray = Ray::new(resume.point + resume.normal * RAY_EPSILON, dir);
        self.continue_bounce(ray, resume.bounce);
    }

    /// Advances to the next path segment, honouring the bounce limit and
    /// the throughput termination rule of the functional tracer.
    fn continue_bounce(&mut self, ray: Ray, bounce: u32) {
        if self.throughput.max_component() < 1e-4 || bounce >= self.max_bounces {
            self.end_path();
            return;
        }
        let tr = self.scene.bvh().traverse(ray, self.scene.primitives());
        self.state = State::Path {
            tr,
            bounce: bounce + 1,
        };
    }
}

/// Schlick's Fresnel approximation (identical to the functional tracer's).
fn schlick(cos: f32, ior: f32) -> f32 {
    let r0 = ((1.0 - ior) / (1.0 + ior)).powi(2);
    r0 + (1.0 - r0) * (1.0 - cos).powi(5)
}

impl ThreadProgram for PixelProgram<'_> {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return Some(op);
            }
            // Traversals are stepped where they live; the state is only
            // rewritten when a ray ends.
            match &mut self.state {
                State::StartSample => {
                    if self.sample >= self.spp {
                        // Frame done for this pixel: write the framebuffer.
                        self.queue.push_back(Op::Store {
                            addr: self.map.pixel_addr(self.pixel.x, self.pixel.y, self.width),
                            bytes: self.map.pixel_stride as u32,
                        });
                        // The store drains, then None.
                        self.state = State::Finished;
                        continue;
                    }
                    self.sample += 1;
                    let ray = self.scene.camera().primary_ray(
                        self.pixel.x,
                        self.pixel.y,
                        self.width,
                        self.height,
                        &mut self.rng,
                    );
                    self.queue.push_back(Op::Compute {
                        cycles: 16,
                        insts: 16,
                    });
                    let tr = self.scene.bvh().traverse(ray, self.scene.primitives());
                    self.state = State::Path { tr, bounce: 0 };
                }
                State::Path { tr, bounce } => match tr.step() {
                    Some(step) => return Some(Self::op_of(&self.map, step)),
                    None => {
                        let (hit, incoming, bounce) = (tr.hit(), tr.ray().dir, *bounce);
                        self.resolve_path_hit(hit, incoming, bounce);
                    }
                },
                State::Shadow { tr, resume } => {
                    let step = tr.step();
                    // Early-out once occlusion is proven; either way the
                    // bounce finishes when the shadow query does.
                    if step.is_none() || tr.hit_found() {
                        let resume = *resume;
                        self.continue_after_diffuse(resume);
                    }
                    if let Some(step) = step {
                        return Some(Self::op_of(&self.map, step));
                    }
                }
                State::Finished => return None,
            }
        }
    }
}
