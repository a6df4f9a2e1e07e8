//! The componentized simulation engine.
//!
//! Split along the machine's natural seams:
//!
//! * [`sm`] — per-SM timing state;
//! * [`events`] — the global warp wake-up heap with its documented
//!   (time, warp age, SM, slot) total order;
//! * [`decode`] — warp streams turned into categorized phases, pure of
//!   all timing state;
//! * [`core`] — the event-driven commit loop tying them together.
//!
//! The public surface stays [`crate::Simulator`]; everything here is
//! crate-private machinery behind it.

mod core;
mod decode;
mod events;
mod sm;

pub(crate) use core::Engine;
