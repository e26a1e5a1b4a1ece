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

use gpu_sim::KernelDesc;
use sanitizer::PlanNodeRef;

/// Borrowed node views over owned `(kernel, stream, deps)` rows: the shape
/// the plan checker and the linter take.
fn refs(rows: &[(KernelDesc, usize, Vec<usize>)]) -> Vec<PlanNodeRef<'_>> {
    rows.iter()
        .map(|(kernel, stream, deps)| PlanNodeRef {
            kernel,
            stream: *stream,
            deps,
        })
        .collect()
}
