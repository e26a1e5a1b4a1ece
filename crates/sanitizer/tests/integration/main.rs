//! `sanitizer` integration tests: one test binary, one module per area. Run
//! one module with
//!
//! ```text
//! cargo test -p sanitizer --test integration <module>::
//! ```

mod fault_injection;
mod lint_faults;
mod proptest_lint;
mod proptest_sanitizer;
