//! SM-side execution structures: RT units.

pub(crate) mod rtunit;
