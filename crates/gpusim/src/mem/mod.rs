//! Memory system: caches, DRAM channels and their composition.

mod cache;
mod dram;
mod hierarchy;
mod partition;

pub use cache::{Cache, Probe};
pub use dram::{DramChannel, RowBufferConfig};
pub use hierarchy::MemoryHierarchy;
pub use partition::MemPartition;
