//! Bounding volume hierarchy: binned-SAH construction and a traversal loop
//! generic over what it reports.

mod build;
mod flat;

pub use build::BuildMethod;
pub use flat::{Bvh, FlatNode, TraversalStats, VisitSink, MAX_DEPTH};
