//! Symbolic per-sample slot declarations: the one access shape
//! batch-split layers emit, checked in one pass.
//!
//! The pairwise checker ([`crate::Sanitizer::check_chunks`]) sweeps the
//! chunks' access unions for every captured instance. But a batch-split
//! layer's chunks are independent for one reason (paper §3.3.1): chunk `i`
//! processes sample `i`, so every access to a batch-major buffer stays in
//! that sample's slot `[i·s, (i+1)·s)`, and everything else it touches —
//! weights, bias — it only reads. A [`SampleSlots`] declares those
//! buffers and their per-sample strides, symbolically in `i`;
//! [`SampleSlots::admits`] checks each concrete access against its chunk's
//! slot once. Slots of distinct chunks are disjoint and undeclared buffers
//! are never written, so a pass proves cross-chunk hazard-freedom with no
//! pairwise step and nothing to cache. A miss (a reordered schedule, a
//! drifted declaration) falls back to the pairwise checker, so the check is
//! a shortcut, never a soundness assumption.

use gpu_sim::{BufferId, KernelDesc};

/// The batch-major buffers of one dispatch site, each with its per-sample
/// stride in bytes: chunk `i` may touch only `[i·stride, (i+1)·stride)` of
/// a declared buffer, and may write no undeclared one.
#[derive(Debug, Default)]
pub struct SampleSlots(pub Vec<(BufferId, u64)>);

impl SampleSlots {
    /// `Ok` when every access of chunk `i` (group `i`) to a declared buffer
    /// lies inside slot `i` and every write goes to a declared buffer;
    /// otherwise why not. A zero stride, a buffer declared twice and a slot
    /// reaching past `u64::MAX` are misses.
    pub fn admits(&self, groups: &[Vec<KernelDesc>]) -> Result<(), String> {
        for (n, &(buffer, stride)) in self.0.iter().enumerate() {
            if stride == 0 {
                return Err(format!("{buffer} is declared with a zero stride"));
            }
            if self.0[..n].iter().any(|&(b, _)| b == buffer) {
                return Err(format!("{buffer} is declared twice"));
            }
        }
        for (i, group) in groups.iter().enumerate() {
            for k in group {
                let reads = k.accesses.reads.iter().map(|a| (a, false));
                for (a, write) in reads.chain(k.accesses.writes.iter().map(|a| (a, true))) {
                    let verb = if write { "writes" } else { "reads" };
                    let Some(&(_, stride)) = self.0.iter().find(|&&(b, _)| b == a.buffer) else {
                        if write {
                            return Err(format!(
                                "chunk {i} kernel `{}` writes undeclared buffer {}",
                                k.name, a.buffer
                            ));
                        }
                        continue;
                    };
                    let slot = (i as u64)
                        .checked_mul(stride)
                        .and_then(|lo| Some((lo, lo.checked_add(stride)?)));
                    if !slot.is_some_and(|(lo, hi)| lo <= a.range.start && a.range.end <= hi) {
                        return Err(format!(
                            "chunk {i} kernel `{}` {verb} {} of {}, outside sample slot {i} \
                             (stride {stride})",
                            k.name, a.range, a.buffer
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ByteRange, Dim3, KernelCost, LaunchConfig};

    fn buf(l: &str) -> BufferId {
        BufferId::from_label(l)
    }

    fn kernel(i: u64) -> KernelDesc {
        KernelDesc::new(
            "k",
            LaunchConfig::new(Dim3::linear(1), Dim3::linear(32), 16, 0),
            KernelCost::new(1.0, 1.0),
        )
        .with_tag(i)
    }

    /// One single-kernel group per chunk, each built by `f(i)`.
    fn groups(n: u64, f: impl Fn(u64) -> KernelDesc) -> Vec<Vec<KernelDesc>> {
        (0..n).map(|i| vec![f(i)]).collect()
    }

    #[test]
    fn tiled_per_chunk_writes_are_proven() {
        // Chunk i writes [i*400, i*400+400): exactly its slot.
        let b = buf("sym/a");
        let g = groups(4, |i| kernel(i).writes(b, ByteRange::span(i * 400, 400)));
        assert_eq!(SampleSlots(vec![(b, 400)]).admits(&g), Ok(()));
    }

    #[test]
    fn overlapping_stride_is_refuted_with_minimal_witness() {
        // len > stride: chunk i spills into chunk i+1's slot, and chunk 0 is
        // the first to.
        let b = buf("sym/b");
        let g = groups(3, |i| kernel(i).writes(b, ByteRange::span(i * 400, 500)));
        let why = SampleSlots(vec![(b, 400)]).admits(&g).unwrap_err();
        assert!(why.contains("chunk 0") && why.contains("[0, 500)"), "{why}");
    }

    #[test]
    fn fixed_write_is_always_refuted() {
        // Every chunk writes the same range, of an undeclared buffer or of
        // a declared one: either way it leaves the sample slots.
        let b = buf("sym/c");
        let g = groups(2, |i| kernel(i).writes(b, ByteRange::new(0, 64)));
        let why = SampleSlots::default().admits(&g).unwrap_err();
        assert!(why.contains("undeclared"), "{why}");
        let why = SampleSlots(vec![(b, 64)]).admits(&g).unwrap_err();
        assert!(why.contains("chunk 1"), "{why}");
    }

    #[test]
    fn fixed_read_against_disjoint_chunk_writes_is_fine() {
        // Weights read whole by every chunk; outputs tiled: the conv
        // pattern.
        let (w, out) = (buf("sym/w"), buf("sym/out"));
        let g = groups(3, |i| {
            kernel(i)
                .reads(w, ByteRange::new(0, 1024))
                .writes(out, ByteRange::span(i * 256, 256))
        });
        assert_eq!(SampleSlots(vec![(out, 256)]).admits(&g), Ok(()));
    }

    #[test]
    fn chunk_write_overlapping_fixed_read_is_refuted() {
        // Chunk writes march into a buffer every chunk reads whole: the
        // whole-buffer read leaves chunk 0's slot.
        let d = buf("sym/d");
        let g = groups(3, |i| {
            kernel(i)
                .reads(d, ByteRange::new(0, 4096))
                .writes(d, ByteRange::span(i * 256, 256))
        });
        let why = SampleSlots(vec![(d, 256)]).admits(&g).unwrap_err();
        assert!(why.contains("reads [0, 4096)"), "{why}");
    }

    #[test]
    fn offset_equal_stride_accesses_can_interleave_safely() {
        // Chunk i writes the first half of its 800-byte slot and reads the
        // second half.
        let b = buf("sym/f");
        let g = groups(4, |i| {
            kernel(i)
                .writes(b, ByteRange::span(i * 800, 400))
                .reads(b, ByteRange::span(i * 800 + 400, 400))
        });
        assert_eq!(SampleSlots(vec![(b, 800)]).admits(&g), Ok(()));
    }

    #[test]
    fn read_read_overlap_is_not_a_hazard() {
        let b = buf("sym/h");
        let g = groups(3, |i| kernel(i).reads(b, ByteRange::new(0, 64)));
        assert_eq!(SampleSlots::default().admits(&g), Ok(()));
    }

    #[test]
    fn zero_stride_duplicate_and_overflow_are_refused() {
        let b = buf("sym/g");
        let g = groups(2, |i| kernel(i).writes(b, ByteRange::span(i * 64, 64)));
        assert!(SampleSlots(vec![(b, 0)]).admits(&g).is_err());
        // Two strides for one buffer: its slots are ambiguous.
        assert!(SampleSlots(vec![(b, 64), (b, 32)]).admits(&g).is_err());
        assert!(SampleSlots(vec![(b, 64), (b, 64)]).admits(&g).is_err());
        // Only chunk n touches the buffer: chunk 3's slot start, 3·stride,
        // is past u64::MAX; chunk 2's slot end is too.
        let stride = u64::MAX / 3 + 1;
        let only = |n: u64| {
            groups(n + 1, move |i| {
                let k = kernel(i);
                if i == n {
                    k.writes(b, ByteRange::new(u64::MAX - 1, u64::MAX))
                } else {
                    k
                }
            })
        };
        for n in [2, 3] {
            let why = SampleSlots(vec![(b, stride)]).admits(&only(n)).unwrap_err();
            assert!(why.contains(&format!("chunk {n}")), "{why}");
        }
    }

    #[test]
    fn conformance_accepts_exact_instance_and_rejects_drift() {
        let b = buf("sym/i");
        let slots = SampleSlots(vec![(b, 400)]);
        let mk = |starts: [u64; 3]| {
            let g: Vec<_> = starts
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![kernel(i as u64).writes(b, ByteRange::span(s, 400))])
                .collect();
            g
        };
        assert_eq!(slots.admits(&mk([0, 400, 800])), Ok(()));
        assert!(slots.admits(&mk([0, 400, 640])).is_err(), "wrong offset");
        // Chunks swapped: each stays disjoint, but chunk 1 no longer holds
        // sample 1, so the slots do not admit it.
        assert!(slots.admits(&mk([0, 800, 400])).is_err(), "reordered");
        assert_eq!(slots.admits(&[]), Ok(()), "no chunks, nothing to admit");
    }

    #[test]
    fn proven_spec_matches_pairwise_on_instances() {
        // Whatever the slots admit, no two chunks conflict concretely.
        let (w, o) = (buf("sym/j/w"), buf("sym/j/o"));
        for n in 2..6u64 {
            let g = groups(n, |i| {
                kernel(i)
                    .reads(w, ByteRange::new(0, 128))
                    .writes(o, ByteRange::span(i * 512 + 64, 448))
            });
            assert_eq!(SampleSlots(vec![(o, 512)]).admits(&g), Ok(()));
            for i in 0..g.len() {
                for j in 0..g.len() {
                    if i != j {
                        let c = g[i][0].accesses.conflict_with(&g[j][0].accesses);
                        assert!(c.is_none(), "chunks {i},{j} of {n}");
                    }
                }
            }
        }
    }
}
