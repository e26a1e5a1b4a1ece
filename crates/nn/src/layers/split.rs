//! Split layer (Caffe's `Split`): duplicates a blob so several consumers
//! can each receive — and back-propagate through — their own copy. The
//! backward pass *accumulates* the top gradients, which is what makes
//! fan-out inside a network well-defined.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use crate::layers::kernels::sample_range;
use glp4nn::Phase;
use gpu_sim::BufferId;
use tensor::Blob;

/// Copy one bottom into N tops; sum N top-gradients into the bottom.
pub struct SplitLayer {
    name: String,
    /// Ids of the batch-split path's named device buffers: the bottom's two
    /// hashed at construction, one per top by the first batch-split
    /// dispatch that sees the wiring — not on every dispatch.
    in_buf: BufferId,
    din_buf: BufferId,
    out_bufs: Vec<BufferId>,
    dout_bufs: Vec<BufferId>,
}

impl SplitLayer {
    /// New split layer (top count is taken from the wiring).
    pub fn new(name: &str) -> Self {
        SplitLayer {
            name: name.to_string(),
            in_buf: BufferId::from_label(&format!("{name}/in")),
            din_buf: BufferId::from_label(&format!("{name}/din")),
            out_bufs: Vec::new(),
            dout_bufs: Vec::new(),
        }
    }
}

impl Layer for SplitLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Split"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        assert_eq!(bottom.len(), 1);
        assert!(!top.is_empty(), "split needs at least one top");
        for t in top.iter_mut() {
            t.resize(bottom[0].shape());
        }
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let n = bottom[0].count();
        if ctx.batch_parallel_all {
            // Batch-split path: one copy kernel per sample with tight
            // per-sample regions (not whole-buffer spans) on the input and
            // every duplicated top, so cross-chunk and cross-operator
            // disjointness stays symbolically provable.
            let samples = bottom[0].num();
            let per = n / samples.max(1);
            if self.out_bufs.len() != top.len() {
                self.out_bufs = kernels::indexed_bufs(&self.name, "out", top.len());
            }
            let (in_buf, out_bufs) = (self.in_buf, &self.out_bufs);
            let tops = top.len();
            ctx.dispatch_split(
                &self.name,
                Phase::Forward,
                samples,
                || {
                    let mut k =
                        sanitizer::SymKernel::new("split").reads(in_buf, kernels::sym_sample(per));
                    for buf in out_bufs {
                        k = k.writes(*buf, kernels::sym_sample(per));
                    }
                    Some(sanitizer::SymGroupSpec::new().kernel(k))
                },
                || {
                    (0..samples as u64)
                        .map(|i| {
                            let mut kd = kernels::elemwise_kernel("split", per * tops, 0.0)
                                .with_tag(i)
                                .reads(in_buf, sample_range(i, per));
                            for buf in out_bufs {
                                kd = kd.writes(*buf, sample_range(i, per));
                            }
                            vec![kd]
                        })
                        .collect()
                },
            );
        } else {
            ctx.dispatch_batch(&self.name, Phase::Forward, || {
                let writes: Vec<(String, usize)> =
                    (0..top.len()).map(|i| (format!("out{i}"), n)).collect();
                let write_refs: Vec<(&str, usize)> =
                    writes.iter().map(|(s, c)| (s.as_str(), *c)).collect();
                vec![kernels::declare_io(
                    kernels::elemwise_kernel("split", n * top.len(), 0.0),
                    &self.name,
                    &[("in", n)],
                    &write_refs,
                )]
            });
        }
        if !ctx.compute {
            return;
        }
        for t in top.iter_mut() {
            t.data_mut().copy_from_slice(bottom[0].data());
        }
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let n = bottom[0].count();
        if ctx.batch_parallel_all {
            // Per-sample gradient accumulation, mirroring the forward
            // path's tight sample regions.
            let samples = bottom[0].num();
            let per = n / samples.max(1);
            if self.dout_bufs.len() != top.len() {
                self.dout_bufs = kernels::indexed_bufs(&self.name, "dout", top.len());
            }
            let (din_buf, dout_bufs) = (self.din_buf, &self.dout_bufs);
            let tops = top.len();
            ctx.dispatch_split(
                &self.name,
                Phase::Backward,
                samples,
                || {
                    let mut k = sanitizer::SymKernel::new("split_bwd");
                    for buf in dout_bufs {
                        k = k.reads(*buf, kernels::sym_sample(per));
                    }
                    Some(
                        sanitizer::SymGroupSpec::new()
                            .kernel(k.writes(din_buf, kernels::sym_sample(per))),
                    )
                },
                || {
                    (0..samples as u64)
                        .map(|i| {
                            let mut kd =
                                kernels::elemwise_kernel("split_bwd", per * tops, 1.0).with_tag(i);
                            for buf in dout_bufs {
                                kd = kd.reads(*buf, sample_range(i, per));
                            }
                            vec![kd.writes(din_buf, sample_range(i, per))]
                        })
                        .collect()
                },
            );
        } else {
            ctx.dispatch_batch(&self.name, Phase::Backward, || {
                let reads: Vec<(String, usize)> =
                    (0..top.len()).map(|i| (format!("dout{i}"), n)).collect();
                let read_refs: Vec<(&str, usize)> =
                    reads.iter().map(|(s, c)| (s.as_str(), *c)).collect();
                vec![kernels::declare_io(
                    kernels::elemwise_kernel("split_bwd", n * top.len(), 1.0),
                    &self.name,
                    &read_refs,
                    &[("din", n)],
                )]
            });
        }
        if !ctx.compute {
            return;
        }
        let d = bottom[0].diff_mut();
        d.copy_from_slice(top[0].diff());
        for t in &top[1..] {
            for (dst, src) in d.iter_mut().zip(t.diff()) {
                *dst += *src;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    #[test]
    fn forward_copies_to_all_tops() {
        let mut l = SplitLayer::new("split");
        let bottom = Blob::from_data(&[3], vec![1.0, 2.0, 3.0]);
        let mut tops = vec![Blob::empty(), Blob::empty(), Blob::empty()];
        l.reshape(&[&bottom], &mut tops);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut tops);
        for t in &tops {
            assert_eq!(t.data(), bottom.data());
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut l = SplitLayer::new("split");
        let bottom = Blob::from_data(&[2], vec![0.0, 0.0]);
        let mut tops = vec![Blob::empty(), Blob::empty()];
        l.reshape(&[&bottom], &mut tops);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut tops);
        tops[0].diff_mut().copy_from_slice(&[1.0, 2.0]);
        tops[1].diff_mut().copy_from_slice(&[10.0, 20.0]);
        let top_refs: Vec<&Blob> = tops.iter().collect();
        let mut bottoms = vec![bottom];
        l.backward(&mut ctx, &top_refs, &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[11.0, 22.0]);
    }

    #[test]
    fn per_sample_regions_certify_and_widened_range_is_reported() {
        use sanitizer::{SanitizeMode, Sanitizer};
        let mut l = SplitLayer::new("split");
        let bottom = Blob::nchw(4, 2, 1, 1);
        let mut tops = vec![Blob::empty(), Blob::empty()];
        l.reshape(&[&bottom], &mut tops);
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).batch_parallel_all();
        ctx.begin_staging();
        let top_refs: Vec<&Blob> = tops.iter().collect();
        let mut bottoms = vec![bottom];
        l.backward(&mut ctx, &top_refs, &mut bottoms);
        let mut staged = ctx.take_staged();
        assert_eq!(staged.len(), 1);
        let d = staged.pop().unwrap();
        let spec = d.spec.expect("split declares a symbolic spec");
        assert_eq!(d.groups.len(), 4, "one group per sample");

        // Tight per-sample regions: symbolically certified, zero reports.
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        assert!(san.check_chunks_spec("split/bwd", "test/split/bwd", &spec, &d.groups));
        assert!(san.reports().is_empty(), "{:?}", san.reports());

        // Fault injection: widen one sample's gradient write back to the
        // whole bottom-diff buffer. The spec conformance check fails, the
        // pairwise fallback runs, and the overlap is reported.
        let mut widened = d.groups.clone();
        widened[2][0].accesses.writes[0].range = kernels::full_range(bottoms[0].count());
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        assert!(!san.check_chunks_spec("split/bwd", "test/split/bwd", &spec, &widened));
        assert!(
            !san.reports().is_empty(),
            "widened write range must be reported"
        );
    }

    #[test]
    fn single_top_passthrough() {
        let mut l = SplitLayer::new("split");
        let bottom = Blob::from_data(&[2], vec![5.0, 6.0]);
        let mut tops = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut tops);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut tops);
        tops[0].diff_mut().copy_from_slice(&[1.0, 1.0]);
        let top_refs: Vec<&Blob> = tops.iter().collect();
        let mut bottoms = vec![bottom];
        l.backward(&mut ctx, &top_refs, &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[1.0, 1.0]);
    }
}
