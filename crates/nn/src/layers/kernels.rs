//! Builders for the simulated-GPU kernel descriptors each layer emits.
//!
//! Launch configurations follow Caffe's CUDA kernels: element-wise kernels
//! use one thread per element in 128-thread blocks; GEMMs use 32×32 output
//! tiles computed by 256-thread blocks with double-buffered shared-memory
//! tiles (8 KiB); im2col uses one thread per output column position with
//! the register pressure the paper reports (33 registers). Costs are
//! roofline inputs: FLOPs and DRAM bytes per block.

use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};
use sanitizer::SampleSlots;

/// Bytes per f32 element, for declared access ranges.
pub const F32_BYTES: u64 = 4;

/// The byte range sample `i` occupies in a batch-major buffer whose
/// per-sample stride is `stride_elems` f32 elements. This is the region a
/// batch-split chunk kernel declares — chunks of distinct samples are
/// disjoint by construction, which is exactly what the schedule sanitizer
/// proves before concurrent dispatch.
pub fn sample_range(i: u64, stride_elems: usize) -> ByteRange {
    let stride = stride_elems as u64 * F32_BYTES;
    ByteRange::span(i * stride, stride)
}

/// The byte range of a whole `elems`-element f32 buffer (weights, whole-
/// batch activations).
pub fn full_range(elems: usize) -> ByteRange {
    ByteRange::span(0, elems as u64 * F32_BYTES)
}

/// The sample slots of a batch-split site: each `(buffer, stride_elems)`
/// says chunk `i` touches only [`sample_range`]`(i, stride_elems)` of that
/// batch-major buffer. Buffers left out (weights, bias) may only be read.
pub(crate) fn sample_slots(slots: impl IntoIterator<Item = (BufferId, usize)>) -> SampleSlots {
    SampleSlots(
        slots
            .into_iter()
            .map(|(b, elems)| (b, elems as u64 * F32_BYTES))
            .collect(),
    )
}

/// Ids of a layer's per-blob buffers `"{layer}/{stem}0"`, `"{layer}/{stem}1"`,
/// … for a blob count only the wiring knows (Split's tops, Concat's
/// bottoms).
pub(crate) fn indexed_bufs(layer: &str, stem: &str, count: usize) -> Vec<BufferId> {
    (0..count)
        .map(|i| BufferId::from_label(&format!("{layer}/{stem}{i}")))
        .collect()
}

/// Annotate a whole-batch kernel with full-buffer accesses on the layer's
/// named buffers: each entry is `(buffer suffix, element count)` and the
/// buffer id is derived from `"{layer}/{suffix}"`. Used by layers whose
/// kernels touch entire blobs (ReLU, LRN, FC, loss...), where a coarse
/// whole-buffer declaration is exact.
pub fn declare_io(
    kd: KernelDesc,
    layer: &str,
    reads: &[(&str, usize)],
    writes: &[(&str, usize)],
) -> KernelDesc {
    let mut kd = kd;
    for (suffix, elems) in reads {
        kd = kd.reads(
            BufferId::from_label(&format!("{layer}/{suffix}")),
            full_range(*elems),
        );
    }
    for (suffix, elems) in writes {
        kd = kd.writes(
            BufferId::from_label(&format!("{layer}/{suffix}")),
            full_range(*elems),
        );
    }
    kd
}

/// GEMM tile edge (output elements per block edge) — cuBLAS-style 64×64
/// register-tiled blocks, so grids stay modest like the `sgemm_*` kernels
/// the paper profiles.
pub const GEMM_TILE: u32 = 64;
/// Threads per GEMM block.
pub const GEMM_BLOCK_THREADS: u32 = 256;
/// Shared memory per GEMM block: double-buffered 64×16 / 16×64 stripes.
pub const GEMM_SMEM_BYTES: u32 = 16 * 1024;
/// Threads per element-wise block.
pub const ELEMWISE_BLOCK_THREADS: u32 = 128;

fn ceil_div(a: u64, b: u64) -> u32 {
    a.div_ceil(b) as u32
}

/// Per-sample `im2col` kernel: one thread per `(channel, out_y, out_x)`
/// column position, each copying a `F×F` patch.
pub fn im2col_kernel(ci: usize, oh: usize, ow: usize, f: usize, tag: u64) -> KernelDesc {
    let positions = (ci * oh * ow) as u64;
    let grid = ceil_div(positions, ELEMWISE_BLOCK_THREADS as u64).max(1);
    let copied = (ci * f * f * oh * ow) as f64;
    KernelDesc::new(
        "im2col",
        LaunchConfig::new(
            Dim3::linear(grid),
            Dim3::linear(ELEMWISE_BLOCK_THREADS),
            33,
            0,
        ),
        KernelCost::new(
            // Address arithmetic dominates; ~2 ops per copied element.
            2.0 * copied / grid as f64,
            // Read (cached, ~0.5x duplication) + write the column matrix.
            (copied * 4.0 * 1.5) / grid as f64,
        ),
    )
    .with_tag(tag)
}

/// Per-sample convolution GEMM: `C[co × ohw] = W[co × k] · col[k × ohw]`.
pub fn conv_gemm_kernel(co: usize, k: usize, ohw: usize, tag: u64) -> KernelDesc {
    let gx = ceil_div(co as u64, GEMM_TILE as u64).max(1);
    let gy = ceil_div(ohw as u64, GEMM_TILE as u64).max(1);
    let flops_per_block = 2.0 * k as f64 * (GEMM_TILE * GEMM_TILE) as f64;
    // Each block streams two k-long tile stripes through shared memory;
    // L2 captures most cross-block reuse of the same stripes (factor 4),
    // making a well-tiled SGEMM compute-bound, as on real hardware.
    let bytes_per_block = 2.0 * k as f64 * GEMM_TILE as f64 * 4.0 * 0.25;
    KernelDesc::new(
        "sgemm",
        LaunchConfig::new(
            Dim3::plane(gx, gy),
            Dim3::linear(GEMM_BLOCK_THREADS),
            64,
            GEMM_SMEM_BYTES,
        ),
        KernelCost::new(flops_per_block, bytes_per_block),
    )
    .with_tag(tag)
}

/// Per-sample bias broadcast (the paper's `gemmk`): `out[c, p] += bias[c]`.
pub fn bias_kernel(co: usize, ohw: usize, tag: u64) -> KernelDesc {
    let n = (co * ohw) as u64;
    let grid = ceil_div(n, ELEMWISE_BLOCK_THREADS as u64).max(1);
    KernelDesc::new(
        "gemmk",
        LaunchConfig::new(
            Dim3::linear(grid),
            Dim3::linear(ELEMWISE_BLOCK_THREADS),
            16,
            0,
        ),
        KernelCost::new(n as f64 / grid as f64, n as f64 * 8.0 / grid as f64),
    )
    .with_tag(tag)
}

/// Per-sample `col2im` scatter (conv backward-data second half).
pub fn col2im_kernel(ci: usize, ih: usize, iw: usize, f: usize, tag: u64) -> KernelDesc {
    let pixels = (ci * ih * iw) as u64;
    let grid = ceil_div(pixels, ELEMWISE_BLOCK_THREADS as u64).max(1);
    let taps = pixels as f64 * (f * f) as f64;
    KernelDesc::new(
        "col2im",
        LaunchConfig::new(
            Dim3::linear(grid),
            Dim3::linear(ELEMWISE_BLOCK_THREADS),
            28,
            0,
        ),
        KernelCost::new(2.0 * taps / grid as f64, taps * 4.0 / grid as f64),
    )
    .with_tag(tag)
}

/// Whole-batch element-wise kernel (ReLU, dropout, scale...).
pub fn elemwise_kernel(name: &str, elements: usize, flops_per_element: f64) -> KernelDesc {
    let n = elements as u64;
    let grid = ceil_div(n, ELEMWISE_BLOCK_THREADS as u64).max(1);
    KernelDesc::new(
        name,
        LaunchConfig::new(
            Dim3::linear(grid),
            Dim3::linear(ELEMWISE_BLOCK_THREADS),
            16,
            0,
        ),
        KernelCost::new(
            n as f64 * flops_per_element / grid as f64,
            n as f64 * 8.0 / grid as f64,
        ),
    )
}

/// Whole-batch pooling kernel: one thread per output element, each
/// scanning a `F×F` window.
pub fn pool_kernel(name: &str, out_elements: usize, window: usize) -> KernelDesc {
    let n = out_elements as u64;
    let grid = ceil_div(n, ELEMWISE_BLOCK_THREADS as u64).max(1);
    let work = (window * window) as f64;
    KernelDesc::new(
        name,
        LaunchConfig::new(
            Dim3::linear(grid),
            Dim3::linear(ELEMWISE_BLOCK_THREADS),
            24,
            0,
        ),
        KernelCost::new(
            n as f64 * work / grid as f64,
            n as f64 * (work + 1.0) * 4.0 / grid as f64,
        ),
    )
}

/// Whole-batch fully-connected GEMM: `C[n × out] = X[n × in] · W^T`.
pub fn fc_gemm_kernel(batch: usize, out: usize, input: usize) -> KernelDesc {
    conv_gemm_kernel(batch, input, out, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_matches_paper_shape() {
        // Siamese conv1 on MNIST-shaped input: ci=1, out 24x24 -> 576
        // positions -> ceil(576/128) = 5 blocks of 128 threads, 33 regs.
        let k = im2col_kernel(1, 24, 24, 5, 0);
        assert_eq!(k.launch.grid.x, 5);
        assert_eq!(k.launch.block.x, 128);
        assert_eq!(k.launch.regs_per_thread, 33);
        assert_eq!(k.name, "im2col");
    }

    #[test]
    fn gemm_grid_covers_output_tiles() {
        // CaffeNet conv1 per sample: 96 x 3025 output, K=363.
        let k = conv_gemm_kernel(96, 363, 3025, 7);
        assert_eq!(k.launch.grid.x, 2); // ceil(96/64)
        assert_eq!(k.launch.grid.y, 48); // ceil(3025/64)
        assert_eq!(k.launch.smem_per_block(), GEMM_SMEM_BYTES);
        assert_eq!(k.tag, 7);
        assert!(k.cost.flops_per_block > 0.0);
    }

    #[test]
    fn elemwise_covers_all_elements() {
        let k = elemwise_kernel("relu", 1000, 1.0);
        assert!(k.launch.grid.x * k.launch.block.x >= 1000);
    }

    #[test]
    fn tiny_layers_get_at_least_one_block() {
        assert_eq!(im2col_kernel(1, 1, 1, 1, 0).launch.grid.x, 1);
        assert_eq!(conv_gemm_kernel(1, 1, 1, 0).launch.grid.count(), 1);
        assert_eq!(bias_kernel(1, 1, 0).launch.grid.x, 1);
        assert_eq!(pool_kernel("pool", 1, 2).launch.grid.x, 1);
    }

    #[test]
    fn sample_ranges_are_pairwise_disjoint() {
        let stride = 96 * 3025;
        let a = sample_range(0, stride);
        let b = sample_range(1, stride);
        let c = sample_range(2, stride);
        assert_eq!(a.intersect(b), None);
        assert_eq!(b.intersect(c), None);
        assert_eq!(a.len(), stride as u64 * F32_BYTES);
        assert_eq!(b.start, a.end, "samples tile the buffer");
        assert!(full_range(3 * stride).intersect(c).is_some());
    }

    #[test]
    fn gemm_flops_scale_with_k() {
        let small = conv_gemm_kernel(32, 75, 1024, 0);
        let large = conv_gemm_kernel(32, 750, 1024, 0);
        assert!(large.cost.flops_per_block > small.cost.flops_per_block * 9.0);
    }
}
