//! Geometric and sampling math shared across the suite.
//!
//! Everything here is plain-old-data with deterministic behaviour: vectors
//! ([`Vec3`]), rays ([`Ray`]), bounding boxes ([`Aabb`]), orthonormal bases
//! ([`Onb`]) and a reproducible RNG ([`Pcg`]).

mod aabb;
mod onb;
mod ray;
mod rng;
mod vec3;

pub(crate) use aabb::slab;
pub use aabb::Aabb;
pub use onb::{cosine_hemisphere, uniform_sphere, Onb};
pub use ray::{Ray, RAY_EPSILON};
pub use rng::{splitmix64, Pcg};
pub use vec3::Vec3;
