//! `serve` integration tests: one test binary, one module per area. Run one
//! module with
//!
//! ```text
//! cargo test -p serve --test integration <module>::
//! ```

mod queue_continuous;
mod served_equals_offline;
