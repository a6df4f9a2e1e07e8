//! Geometric primitives and procedural mesh builders.

pub(crate) mod mesh;
mod primitive;
mod sphere;
mod triangle;

pub use primitive::{Hit, Primitive, PrimitiveId};
pub use sphere::Sphere;
pub use triangle::Triangle;
