//! Helpers shared by the modules of the root integration-test binary
//! (`tests/integration.rs` declares `mod common;` once).

pub mod counting_alloc;
pub mod golden;
