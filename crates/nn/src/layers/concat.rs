//! Channel-wise concatenation (GoogLeNet's inception-output join).

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use crate::layers::kernels::sample_range;
use glp4nn::Phase;
use gpu_sim::BufferId;
use tensor::Blob;

/// Concatenate any number of NCHW bottoms along the channel axis.
pub struct ConcatLayer {
    name: std::sync::Arc<str>,
    channel_offsets: Vec<usize>,
    /// Ids of the batch-split path's named device buffers: the top's two
    /// hashed at construction, one per bottom by the first batch-split
    /// dispatch that sees the wiring — not on every dispatch.
    out_buf: BufferId,
    dout_buf: BufferId,
    in_bufs: Vec<BufferId>,
    din_bufs: Vec<BufferId>,
}

impl ConcatLayer {
    /// New concat layer.
    pub fn new(name: &str) -> Self {
        ConcatLayer {
            name: name.into(),
            channel_offsets: Vec::new(),
            out_buf: BufferId::from_label(&format!("{name}/out")),
            dout_buf: BufferId::from_label(&format!("{name}/dout")),
            in_bufs: Vec::new(),
            din_bufs: Vec::new(),
        }
    }
}

impl Layer for ConcatLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Concat"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        assert!(!bottom.is_empty());
        let (n, h, w) = (bottom[0].num(), bottom[0].height(), bottom[0].width());
        self.channel_offsets.clear();
        let mut total_c = 0;
        for b in bottom {
            assert_eq!(b.num(), n, "batch mismatch in concat");
            assert_eq!(b.height(), h, "height mismatch in concat");
            assert_eq!(b.width(), w, "width mismatch in concat");
            self.channel_offsets.push(total_c);
            total_c += b.channels();
        }
        top[0].resize(&[n, total_c, h, w]);
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let total = top[0].count();
        let n = top[0].num();
        let total_c = top[0].channels();
        let spatial = top[0].height() * top[0].width();
        if ctx.batch_parallel_all {
            // Batch-split path: one kernel per sample, each declaring
            // exactly its sample's row in every input and in the output.
            // The tight per-sample regions (instead of whole-buffer spans)
            // are what let the sanitizer admit the chunks by their sample
            // slots and prove cross-operator disjointness.
            let per_out = total_c * spatial;
            let per_in: Vec<usize> = bottom.iter().map(|b| b.channels() * spatial).collect();
            if self.in_bufs.len() != bottom.len() {
                self.in_bufs = kernels::indexed_bufs(&self.name, "in", bottom.len());
            }
            let (in_bufs, out_buf) = (&self.in_bufs, self.out_buf);
            ctx.dispatch_split(
                &self.name,
                Phase::Forward,
                n,
                || {
                    let slots = in_bufs.iter().copied().zip(per_in.iter().copied());
                    Some(kernels::sample_slots(slots.chain([(out_buf, per_out)])))
                },
                || {
                    (0..n as u64)
                        .map(|i| {
                            let mut kd =
                                kernels::elemwise_kernel("concat", per_out, 0.0).with_tag(i);
                            for (buf, cnt) in in_bufs.iter().zip(&per_in) {
                                kd = kd.reads(*buf, sample_range(i, *cnt));
                            }
                            vec![kd.writes(out_buf, sample_range(i, per_out))]
                        })
                        .collect()
                },
            );
        } else {
            ctx.dispatch_batch(&self.name, Phase::Forward, || {
                let reads: Vec<(String, usize)> = bottom
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (format!("in{i}"), b.count()))
                    .collect();
                let read_refs: Vec<(&str, usize)> =
                    reads.iter().map(|(s, n)| (s.as_str(), *n)).collect();
                vec![kernels::declare_io(
                    kernels::elemwise_kernel("concat", total, 0.0),
                    &self.name,
                    &read_refs,
                    &[("out", total)],
                )]
            });
        }
        if !ctx.compute {
            return;
        }
        let t = top[0].data_mut();
        for (bi, b) in bottom.iter().enumerate() {
            let c = b.channels();
            let off = self.channel_offsets[bi];
            for nn in 0..n {
                let src = &b.data()[nn * c * spatial..(nn + 1) * c * spatial];
                let dst =
                    &mut t[(nn * total_c + off) * spatial..(nn * total_c + off + c) * spatial];
                dst.copy_from_slice(src);
            }
        }
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let total = top[0].count();
        let t0 = top[0];
        let n = t0.num();
        let total_c = t0.channels();
        let spatial = t0.height() * t0.width();
        if ctx.batch_parallel_all {
            // Per-sample gradient scatter, mirroring the forward path's
            // tight sample regions.
            let per_out = total_c * spatial;
            let per_in: Vec<usize> = bottom.iter().map(|b| b.channels() * spatial).collect();
            if self.din_bufs.len() != bottom.len() {
                self.din_bufs = kernels::indexed_bufs(&self.name, "din", bottom.len());
            }
            let (din_bufs, dout_buf) = (&self.din_bufs, self.dout_buf);
            ctx.dispatch_split(
                &self.name,
                Phase::Backward,
                n,
                || {
                    let slots = din_bufs.iter().copied().zip(per_in.iter().copied());
                    Some(kernels::sample_slots(slots.chain([(dout_buf, per_out)])))
                },
                || {
                    (0..n as u64)
                        .map(|i| {
                            let mut kd = kernels::elemwise_kernel("concat_bwd", per_out, 0.0)
                                .with_tag(i)
                                .reads(dout_buf, sample_range(i, per_out));
                            for (buf, cnt) in din_bufs.iter().zip(&per_in) {
                                kd = kd.writes(*buf, sample_range(i, *cnt));
                            }
                            vec![kd]
                        })
                        .collect()
                },
            );
        } else {
            ctx.dispatch_batch(&self.name, Phase::Backward, || {
                let writes: Vec<(String, usize)> = bottom
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (format!("din{i}"), b.count()))
                    .collect();
                let write_refs: Vec<(&str, usize)> =
                    writes.iter().map(|(s, n)| (s.as_str(), *n)).collect();
                vec![kernels::declare_io(
                    kernels::elemwise_kernel("concat_bwd", total, 0.0),
                    &self.name,
                    &[("dout", total)],
                    &write_refs,
                )]
            });
        }
        if !ctx.compute {
            return;
        }
        let t = top[0];
        for (bi, b) in bottom.iter_mut().enumerate() {
            let c = b.channels();
            let off = self.channel_offsets[bi];
            let bd = b.diff_mut();
            for nn in 0..n {
                let src =
                    &t.diff()[(nn * total_c + off) * spatial..(nn * total_c + off + c) * spatial];
                bd[nn * c * spatial..(nn + 1) * c * spatial].copy_from_slice(src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    fn ctx() -> ExecCtx {
        ExecCtx::naive(DeviceProps::p100())
    }

    #[test]
    fn concatenates_channels() {
        let mut l = ConcatLayer::new("cat");
        let a = Blob::from_data(&[2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Blob::from_data(
            &[2, 2, 1, 2],
            vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
        );
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b], &mut top);
        assert_eq!(top[0].shape(), &[2, 3, 1, 2]);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b], &mut top);
        assert_eq!(
            top[0].data(),
            &[1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 3.0, 4.0, 9.0, 10.0, 11.0, 12.0]
        );
    }

    #[test]
    fn backward_splits_gradient() {
        let mut l = ConcatLayer::new("cat");
        let a = Blob::nchw(1, 1, 1, 1);
        let b = Blob::nchw(1, 1, 1, 1);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b], &mut top);
        top[0].diff_mut().copy_from_slice(&[3.0, 7.0]);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![a, b];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[3.0]);
        assert_eq!(bottoms[1].diff(), &[7.0]);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn rejects_mismatched_batches() {
        let mut l = ConcatLayer::new("cat");
        let a = Blob::nchw(1, 1, 2, 2);
        let b = Blob::nchw(2, 1, 2, 2);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b], &mut top);
    }

    #[test]
    fn per_sample_regions_certify_and_widened_range_is_reported() {
        use sanitizer::{SanitizeMode, Sanitizer};
        let mut l = ConcatLayer::new("cat");
        let a = Blob::nchw(3, 2, 2, 2);
        let b = Blob::nchw(3, 1, 2, 2);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b], &mut top);
        let mut c = ExecCtx::naive(DeviceProps::p100()).batch_parallel_all();
        c.begin_staging();
        l.forward(&mut c, &[&a, &b], &mut top);
        let mut staged = c.take_staged();
        assert_eq!(staged.len(), 1);
        let d = staged.pop().unwrap();
        let spec = d.spec.expect("concat declares its sample slots");
        assert_eq!(d.groups.len(), 3, "one group per sample");

        // Tight per-sample regions: certified by their slots, zero reports.
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        assert!(san.check_chunks_spec("cat/fwd", "test/cat/fwd", &spec, &d.groups));
        assert!(san.reports().is_empty(), "{:?}", san.reports());

        // Fault injection: widen one sample's write back to the whole
        // output buffer (the old full-span declaration). The write leaves
        // its sample slot, the pairwise fallback runs, and the
        // cross-sample overlap is reported.
        let mut widened = d.groups.clone();
        widened[1][0].accesses.writes[0].range = kernels::full_range(top[0].count());
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        assert!(!san.check_chunks_spec("cat/fwd", "test/cat/fwd", &spec, &widened));
        assert!(
            !san.reports().is_empty(),
            "widened write range must be reported"
        );
    }
}
