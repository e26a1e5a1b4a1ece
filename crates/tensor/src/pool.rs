//! A minimal scoped-thread `parallel_for`.
//!
//! Rayon is not in the sanctioned offline dependency set, so this module
//! provides the one primitive the GEMM and conv layers need: evenly split
//! an index range across scoped worker threads (`std::thread::scope` — no
//! `'static` bound, no allocation of long-lived pool state). Falls back to
//! sequential execution for small ranges where spawn overhead would
//! dominate.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Minimum items per worker before going parallel.
const MIN_CHUNK: usize = 1024;

/// Number of worker threads to use (hardware parallelism, capped at 16).
///
/// Read once, at the first call in the process, and fixed from then on:
/// `available_parallelism` re-reads the CPU affinity mask and cgroup quota
/// on every call (≈ 13 µs), which every `sgemm` would pay. A process that
/// narrows its affinity (as `benchmark/` does) must do so before its first
/// tensor call.
pub fn num_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(16)
    })
}

/// Run `f(start, end)` over disjoint sub-ranges covering `0..n`, possibly
/// in parallel. `f` must be safe to run concurrently on disjoint ranges.
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let workers = num_workers();
    if n == 0 {
        return;
    }
    if workers <= 1 || n < MIN_CHUNK * 2 {
        f(0, n);
        return;
    }
    let chunks = workers.min(n.div_ceil(MIN_CHUNK));
    let chunk = n.div_ceil(chunks);
    std::thread::scope(|scope| {
        for c in 0..chunks {
            let start = c * chunk;
            let end = ((c + 1) * chunk).min(n);
            if start >= end {
                break;
            }
            let f = &f;
            scope.spawn(move || f(start, end));
        }
    });
}

/// Like [`parallel_for`] but hands each worker a mutable, disjoint slice of
/// `data` aligned to `stride`-sized rows: `f(row_start, rows_chunk)`.
pub fn parallel_for_rows<T, F>(data: &mut [T], stride: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert_eq!(data.len() % stride, 0, "data not a whole number of rows");
    let rows = data.len() / stride;
    let workers = num_workers();
    if rows == 0 {
        return;
    }
    if workers <= 1 || data.len() < MIN_CHUNK * 2 {
        f(0, data);
        return;
    }
    let chunks = workers.min(rows);
    let rows_per = rows.div_ceil(chunks);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut row = 0;
        while !rest.is_empty() {
            let take = (rows_per * stride).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let f = &f;
            let r0 = row;
            scope.spawn(move || f(r0, head));
            row += take / stride;
            rest = tail;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_entire_range_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |a, b| {
            for h in &hits[a..b] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_noop() {
        parallel_for(0, |_, _| panic!("must not be called"));
    }

    #[test]
    fn small_range_runs_sequentially() {
        let count = AtomicUsize::new(0);
        parallel_for(10, |a, b| {
            count.fetch_add(b - a, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn rows_are_disjoint_and_complete() {
        let stride = 64;
        let rows = 100;
        let mut data = vec![0u32; stride * rows];
        parallel_for_rows(&mut data, stride, |row0, chunk| {
            for (r, rowbuf) in chunk.chunks_mut(stride).enumerate() {
                for v in rowbuf {
                    *v = (row0 + r) as u32 + 1;
                }
            }
        });
        for (r, rowbuf) in data.chunks(stride).enumerate() {
            assert!(rowbuf.iter().all(|&v| v == r as u32 + 1), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn rows_rejects_ragged_data() {
        let mut data = vec![0u8; 10];
        parallel_for_rows(&mut data, 3, |_, _| {});
    }

    #[test]
    fn workers_is_positive() {
        assert!(num_workers() >= 1);
    }
}
