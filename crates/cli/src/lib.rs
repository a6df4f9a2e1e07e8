//! The `zatel` binary's text renderers, kept in a library so they are
//! unit-tested apart from argument parsing and I/O: see [`report`].

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod report;
