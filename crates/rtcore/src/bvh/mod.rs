//! Bounding volume hierarchy: binned-SAH construction and a traversal loop
//! generic over what it reports.

mod build;
mod flat;
#[cfg(test)]
mod reference;

pub use flat::{Bvh, FlatNode, TraversalStats, VisitSink, MAX_DEPTH};
