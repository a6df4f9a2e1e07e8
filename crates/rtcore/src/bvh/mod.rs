//! Bounding volume hierarchy: binned-SAH construction and stepwise traversal.

mod build;
mod flat;

pub use build::BuildMethod;
pub use flat::{Bvh, FlatNode, Traversal, TraversalStats, TraversalStep, MAX_DEPTH};
