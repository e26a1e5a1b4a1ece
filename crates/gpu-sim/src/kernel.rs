//! Kernel descriptions: launch configuration and cost model inputs.

use crate::device::DeviceProps;
use crate::SimTime;

/// A CUDA-style 3-dimensional extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// Build an explicit 3-D extent.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// A 1-D extent `(n, 1, 1)`.
    pub fn linear(n: u32) -> Self {
        Dim3 { x: n, y: 1, z: 1 }
    }

    /// A 2-D extent `(x, y, 1)`.
    pub fn plane(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements.
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl std::fmt::Display for Dim3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{},{}]", self.x, self.y, self.z)
    }
}

/// Kernel launch configuration: the "profiling input" notations of the
/// paper's Table 2 (`#β_K`, `τ_K`, `sm_K`, registers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Grid dimensions (total blocks = `#β_K`).
    pub grid: Dim3,
    /// Block dimensions (threads per block = `τ_K`).
    pub block: Dim3,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block in bytes.
    pub smem_static: u32,
    /// Dynamic shared memory per block in bytes.
    pub smem_dynamic: u32,
}

impl LaunchConfig {
    /// Launch config with static shared memory only.
    pub fn new(grid: Dim3, block: Dim3, regs_per_thread: u32, smem_static: u32) -> Self {
        LaunchConfig {
            grid,
            block,
            regs_per_thread,
            smem_static,
            smem_dynamic: 0,
        }
    }

    /// Total number of thread blocks (`#β_K`).
    pub fn num_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per block (`τ_K`).
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Shared memory per block (`sm_K` = static + dynamic).
    pub fn smem_per_block(&self) -> u32 {
        self.smem_static + self.smem_dynamic
    }
}

/// Per-block work of a kernel, driving the simulator's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations executed by one thread block.
    pub flops_per_block: f64,
    /// DRAM bytes moved (read + write) by one thread block.
    pub dram_bytes_per_block: f64,
}

impl KernelCost {
    /// Build a cost from per-block FLOPs and DRAM bytes.
    pub fn new(flops_per_block: f64, dram_bytes_per_block: f64) -> Self {
        KernelCost {
            flops_per_block,
            dram_bytes_per_block,
        }
    }

    /// Nominal (uncontended, alone-on-an-SM) execution time of one block
    /// on `dev`, in ns.
    ///
    /// Roofline-style. The compute rate reflects *latency-limited issue*:
    /// a lone block delivers only `warps_block / warps_for_peak` of the
    /// SM's peak until enough warps are co-resident to hide latency — the
    /// under-utilization that GLP4NN's concurrent kernels fill (and the
    /// reason the paper's model maximizes occupancy). The memory term
    /// assumes an uncontended fair share of device bandwidth per SM;
    /// contention on top of this is handled by [`crate::contention`] and
    /// by the engine's residency-aware burst timing.
    fn nominal_block_time_ns(&self, dev: &DeviceProps, threads_per_block: u32) -> SimTime {
        let warps = threads_per_block.div_ceil(dev.warp_size);
        let rate_c = dev.sm_peak_flops() * warps as f64 / warps.max(dev.warps_for_peak) as f64;
        let t_compute = if self.flops_per_block > 0.0 {
            self.flops_per_block / rate_c
        } else {
            0.0
        };
        // Uncontended per-SM bandwidth share.
        let bw_share = dev.mem_bw_gbps * 1e9 / dev.num_sms as f64;
        let t_mem = if self.dram_bytes_per_block > 0.0 {
            self.dram_bytes_per_block / bw_share
        } else {
            0.0
        };
        // Fixed per-block issue latency (~1 µs of scheduling/drain — the
        // floor below which real kernels never finish).
        const BLOCK_OVERHEAD_NS: f64 = 1000.0;
        let t = t_compute.max(t_mem) * 1e9 + BLOCK_OVERHEAD_NS;
        t.ceil() as SimTime
    }

    /// The block's nominal DRAM bandwidth demand in bytes/s (used by the
    /// contention model).
    pub fn bandwidth_demand(&self, dev: &DeviceProps, threads_per_block: u32) -> f64 {
        let t_ns = self.nominal_block_time_ns(dev, threads_per_block) as f64;
        if t_ns <= 0.0 {
            return 0.0;
        }
        self.dram_bytes_per_block / (t_ns * 1e-9)
    }
}

/// Identifier of a logical device buffer (a blob's data or diff, a column
/// workspace, a weight matrix...).
///
/// The simulator has no real memory, so buffers are pure names: a stable
/// 64-bit id derived from a human-readable label. Kernels declare which
/// byte ranges of which buffers they read and write ([`AccessSet`]); the
/// schedule sanitizer uses these declarations to prove dispatch plans
/// race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

fn buffer_labels() -> &'static std::sync::Mutex<std::collections::HashMap<u64, String>> {
    static LABELS: std::sync::OnceLock<std::sync::Mutex<std::collections::HashMap<u64, String>>> =
        std::sync::OnceLock::new();
    LABELS.get_or_init(Default::default)
}

impl BufferId {
    /// Stable id from a human-readable label (FNV-1a), remembering the
    /// label so diagnostics can print it back.
    pub fn from_label(label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        buffer_labels()
            .lock()
            .expect("buffer label registry poisoned")
            .entry(h)
            .or_insert_with(|| label.to_string());
        BufferId(h)
    }

    /// The label this id was created from, if any.
    pub fn label(self) -> Option<String> {
        buffer_labels()
            .lock()
            .expect("buffer label registry poisoned")
            .get(&self.0)
            .cloned()
    }
}

impl std::fmt::Display for BufferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.label() {
            Some(l) => write!(f, "{l}"),
            None => write!(f, "buf#{:016x}", self.0),
        }
    }
}

/// A half-open byte range `[start, end)` within a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte covered.
    pub start: u64,
    /// One past the last byte covered.
    pub end: u64,
}

impl ByteRange {
    /// Range `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        debug_assert!(start <= end, "byte range start {start} > end {end}");
        ByteRange { start, end }
    }

    /// Range of `len` bytes starting at `start`.
    pub fn span(start: u64, len: u64) -> Self {
        ByteRange {
            start,
            end: start + len,
        }
    }

    /// Number of bytes covered.
    pub fn len(self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }

    /// The intersection with `other`, if non-empty.
    pub fn intersect(self, other: ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(ByteRange { start, end })
    }
}

impl std::fmt::Display for ByteRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// One declared access: a byte range of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Buffer touched.
    pub buffer: BufferId,
    /// Byte range touched.
    pub range: ByteRange,
}

/// A conflict between two [`AccessSet`]s: an overlapping byte range with
/// at least one side writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessConflict {
    /// Buffer both sides touch.
    pub buffer: BufferId,
    /// The overlapping byte range.
    pub overlap: ByteRange,
    /// Whether the first access set writes the overlap.
    pub first_writes: bool,
    /// Whether the second access set writes the overlap.
    pub second_writes: bool,
}

impl AccessConflict {
    /// Short hazard label: `write/write`, `write/read`, or `read/write`.
    pub fn hazard(&self) -> &'static str {
        match (self.first_writes, self.second_writes) {
            (true, true) => "write/write",
            (true, false) => "write/read",
            _ => "read/write",
        }
    }
}

/// Declared memory access set of a kernel: which byte ranges of which
/// buffers it reads and writes.
///
/// Declarations are a contract, not a simulation of memory: the sanitizer
/// trusts them to prove chunk regions disjoint and to detect races, the
/// same way CUDA stream-capture validators trust annotated buffers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSet {
    /// Regions read.
    pub reads: Vec<MemAccess>,
    /// Regions written.
    pub writes: Vec<MemAccess>,
}

impl AccessSet {
    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// The first conflict (overlap with ≥ 1 write) between `self` and
    /// `other`, if any. Write/write conflicts are reported in preference
    /// to write/read ones.
    pub fn conflict_with(&self, other: &AccessSet) -> Option<AccessConflict> {
        let overlap = |a: &[MemAccess], b: &[MemAccess]| -> Option<(BufferId, ByteRange)> {
            for x in a {
                for y in b {
                    if x.buffer == y.buffer {
                        if let Some(o) = x.range.intersect(y.range) {
                            return Some((x.buffer, o));
                        }
                    }
                }
            }
            None
        };
        if let Some((buffer, o)) = overlap(&self.writes, &other.writes) {
            return Some(AccessConflict {
                buffer,
                overlap: o,
                first_writes: true,
                second_writes: true,
            });
        }
        if let Some((buffer, o)) = overlap(&self.writes, &other.reads) {
            return Some(AccessConflict {
                buffer,
                overlap: o,
                first_writes: true,
                second_writes: false,
            });
        }
        if let Some((buffer, o)) = overlap(&self.reads, &other.writes) {
            return Some(AccessConflict {
                buffer,
                overlap: o,
                first_writes: false,
                second_writes: true,
            });
        }
        None
    }

    /// Union of two access sets (used when kernels are fused).
    pub fn union(a: &AccessSet, b: &AccessSet) -> AccessSet {
        let mut out = a.clone();
        out.reads.extend(b.reads.iter().copied());
        out.writes.extend(b.writes.iter().copied());
        out
    }
}

/// A kernel (or peer-to-peer copy) name: an immutable, cheaply clonable
/// string.
///
/// Every kernel completion clones the launch descriptor's name into its
/// [`crate::timeline::KernelTrace`]; with a plain `String` that is one
/// heap allocation per simulated kernel — the dominant steady-state
/// allocation of the event loop. `KernelName` wraps `Arc<str>` so the
/// clone is a reference-count bump, keeping the warm loop allocation-free
/// (see `crate::arena` for the rest of that budget).
///
/// The type dereferences to `str` and compares against `&str`/`String`,
/// so call sites read exactly as they did when the field was a `String`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelName(std::sync::Arc<str>);

impl KernelName {
    /// The name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for KernelName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for KernelName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for KernelName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for KernelName {
    fn from(s: &str) -> Self {
        KernelName(std::sync::Arc::from(s))
    }
}

impl From<String> for KernelName {
    fn from(s: String) -> Self {
        KernelName(std::sync::Arc::from(s.as_str()))
    }
}

impl From<&KernelName> for String {
    fn from(n: &KernelName) -> String {
        n.as_str().to_string()
    }
}

impl PartialEq<str> for KernelName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for KernelName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for KernelName {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<KernelName> for str {
    fn eq(&self, other: &KernelName) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<KernelName> for &str {
    fn eq(&self, other: &KernelName) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<KernelName> for String {
    fn eq(&self, other: &KernelName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl std::fmt::Display for KernelName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Identifier of a launched kernel instance within a [`crate::Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub(crate) u64);

impl KernelId {
    /// Raw index (launch order).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A kernel ready to be launched: name + configuration + cost.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name as a profiler would report it (e.g. `im2col`, `sgemm`).
    pub name: KernelName,
    /// Launch configuration.
    pub launch: LaunchConfig,
    /// Per-block cost.
    pub cost: KernelCost,
    /// Opaque correlation tag (layer id, batch-chunk index...) carried into
    /// the timeline and the profiler records.
    pub tag: u64,
    /// Declared memory access set (empty = undeclared; the sanitizer can
    /// only reason about kernels that declare their accesses).
    pub accesses: AccessSet,
}

impl KernelDesc {
    /// Build a kernel description with tag 0 and no declared accesses.
    pub fn new(name: &str, launch: LaunchConfig, cost: KernelCost) -> Self {
        KernelDesc {
            name: name.into(),
            launch,
            cost,
            tag: 0,
            accesses: AccessSet::default(),
        }
    }

    /// Attach a correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Declare that the kernel reads `range` of `buffer`.
    pub fn reads(mut self, buffer: BufferId, range: ByteRange) -> Self {
        self.accesses.reads.push(MemAccess { buffer, range });
        self
    }

    /// Declare that the kernel writes `range` of `buffer`.
    pub fn writes(mut self, buffer: BufferId, range: ByteRange) -> Self {
        self.accesses.writes.push(MemAccess { buffer, range });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_helpers() {
        assert_eq!(Dim3::linear(18).count(), 18);
        assert_eq!(Dim3::plane(4, 5).count(), 20);
        assert_eq!(Dim3::new(2, 3, 4).count(), 24);
        assert_eq!(Dim3::linear(7).to_string(), "[7,1,1]");
    }

    #[test]
    fn launch_config_derived() {
        let lc = LaunchConfig {
            grid: Dim3::plane(8, 4),
            block: Dim3::linear(256),
            regs_per_thread: 33,
            smem_static: 1024,
            smem_dynamic: 512,
        };
        assert_eq!(lc.num_blocks(), 32);
        assert_eq!(lc.threads_per_block(), 256);
        assert_eq!(lc.smem_per_block(), 1536);
    }

    #[test]
    fn compute_bound_block_time_scales_with_flops() {
        let dev = DeviceProps::p100();
        let small = KernelCost::new(1.0e5, 0.0);
        let large = KernelCost::new(1.0e6, 0.0);
        let t1 = small.nominal_block_time_ns(&dev, 256);
        let t2 = large.nominal_block_time_ns(&dev, 256);
        assert!(t2 > t1 * 5, "t1={t1} t2={t2}");
    }

    #[test]
    fn narrow_block_cannot_saturate_sm() {
        // Same per-block flops: a 32-thread block must take longer than a
        // 1024-thread block on a wide SM.
        let dev = DeviceProps::k40c(); // 192 cores/SM
        let cost = KernelCost::new(5.0e5, 0.0);
        let narrow = cost.nominal_block_time_ns(&dev, 32);
        let wide = cost.nominal_block_time_ns(&dev, 1024);
        assert!(narrow > wide, "narrow={narrow} wide={wide}");
    }

    #[test]
    fn memory_bound_block_time_uses_bandwidth() {
        let dev = DeviceProps::p100();
        let cost = KernelCost::new(0.0, 1.0e6); // 1 MB per block, no flops
        let t = cost.nominal_block_time_ns(&dev, 256);
        // 1 MB over (549 GB/s / 56 SMs) ≈ 102 µs.
        let expected = 1.0e6 / (549.0e9 / 56.0) * 1e9;
        assert!((t as f64 - expected).abs() < expected * 0.1, "t={t}");
    }

    #[test]
    fn zero_cost_block_still_has_overhead() {
        let dev = DeviceProps::p100();
        let t = KernelCost::new(0.0, 0.0).nominal_block_time_ns(&dev, 128);
        assert!(t >= 500);
    }

    #[test]
    fn byte_ranges_intersect_half_open() {
        let a = ByteRange::new(0, 100);
        let b = ByteRange::span(100, 50);
        assert_eq!(a.intersect(b), None, "touching ranges do not overlap");
        let c = ByteRange::new(64, 128);
        assert_eq!(a.intersect(c), Some(ByteRange::new(64, 100)));
        assert_eq!(c.len(), 64);
        assert!(!c.is_empty());
        assert_eq!(c.to_string(), "[64, 128)");
    }

    #[test]
    fn buffer_ids_are_stable_and_labelled() {
        let a = BufferId::from_label("conv1/out");
        let b = BufferId::from_label("conv1/out");
        assert_eq!(a, b);
        assert_ne!(a, BufferId::from_label("conv1/in"));
        assert_eq!(a.label().as_deref(), Some("conv1/out"));
        assert_eq!(a.to_string(), "conv1/out");
    }

    #[test]
    fn access_sets_report_conflicts_with_a_write() {
        let buf = BufferId::from_label("b");
        let w0 = AccessSet {
            reads: vec![],
            writes: vec![MemAccess {
                buffer: buf,
                range: ByteRange::new(0, 64),
            }],
        };
        let w1 = AccessSet {
            reads: vec![],
            writes: vec![MemAccess {
                buffer: buf,
                range: ByteRange::new(32, 96),
            }],
        };
        let r1 = AccessSet {
            reads: vec![MemAccess {
                buffer: buf,
                range: ByteRange::new(32, 96),
            }],
            writes: vec![],
        };
        let c = w0.conflict_with(&w1).unwrap();
        assert_eq!(c.hazard(), "write/write");
        assert_eq!(c.overlap, ByteRange::new(32, 64));
        assert_eq!(w0.conflict_with(&r1).unwrap().hazard(), "write/read");
        assert_eq!(r1.conflict_with(&w0).unwrap().hazard(), "read/write");
        assert_eq!(r1.conflict_with(&r1), None, "read/read never conflicts");
        // Disjoint writes of the same buffer do not conflict.
        let w2 = AccessSet {
            reads: vec![],
            writes: vec![MemAccess {
                buffer: buf,
                range: ByteRange::new(64, 128),
            }],
        };
        assert_eq!(w0.conflict_with(&w2), None);
    }

    #[test]
    fn kernel_desc_access_builders_accumulate() {
        let buf = BufferId::from_label("x");
        let k = KernelDesc::new(
            "k",
            LaunchConfig::new(Dim3::linear(1), Dim3::linear(64), 16, 0),
            KernelCost::new(1.0, 1.0),
        )
        .reads(buf, ByteRange::new(0, 8))
        .writes(buf, ByteRange::new(8, 16));
        assert_eq!(k.accesses.reads.len(), 1);
        assert_eq!(k.accesses.writes.len(), 1);
        let merged = AccessSet::union(&k.accesses, &k.accesses);
        assert_eq!(merged.reads.len(), 2);
        assert_eq!(merged.writes.len(), 2);
    }

    #[test]
    fn bandwidth_demand_is_bytes_over_time() {
        let dev = DeviceProps::p100();
        let cost = KernelCost::new(0.0, 1.0e6);
        let d = cost.bandwidth_demand(&dev, 256);
        let t = cost.nominal_block_time_ns(&dev, 256) as f64 * 1e-9;
        assert!((d - 1.0e6 / t).abs() < 1.0);
    }
}
