//! `nn` integration tests: one test binary, one module per area. Run one
//! module with
//!
//! ```text
//! cargo test -p nn --test integration <module>::
//! ```

mod proptest_data_parallel;
mod proptest_layers;
