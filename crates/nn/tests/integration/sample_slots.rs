//! Every batch-split dispatch site declares sample slots that admit the
//! kernel groups it actually builds, at every batch size.

use gpu_sim::DeviceProps;
use nn::{models, ExecCtx, Net};
use std::collections::BTreeSet;

#[test]
fn every_split_site_is_admitted_by_its_slots_at_several_batches() {
    let mut kinds = BTreeSet::new();
    for batch in [1, 3, 8] {
        for spec in [
            models::cifar10_quick(batch, 1),
            models::siamese(batch, 1),
            models::caffenet(batch, 1),
            models::googlenet_subset(batch, 1),
            models::fanout(batch, 1),
        ] {
            let mut net = Net::from_spec(&spec);
            let mut ctx = ExecCtx::naive(DeviceProps::p100())
                .timing_only()
                .batch_parallel_all();
            ctx.begin_staging();
            net.forward(&mut ctx);
            net.backward(&mut ctx);
            for d in ctx.take_staged() {
                let Some(slots) = &d.spec else { continue };
                let site = format!("{}/{}/{}@b{batch}", spec.name, d.layer, d.phase.as_str());
                assert_eq!(d.groups.len(), batch, "{site}: one group per sample");
                if let Err(why) = slots.admits(&d.groups) {
                    panic!("{site}: {why}");
                }
                kinds.insert((d.phase.as_str(), d.groups[0][0].name.to_string()));
            }
        }
    }
    // Conv (im2col and 1×1 paths), pooling, split and concat: all seven
    // `dispatch_split` sites.
    let expect = [
        ("bwd", "concat_bwd"),
        ("bwd", "im2col"),
        ("bwd", "sgemm"),
        ("bwd", "split_bwd"),
        ("fwd", "concat"),
        ("fwd", "im2col"),
        ("fwd", "pool"),
        ("fwd", "sgemm"),
        ("fwd", "split"),
    ];
    let expect: BTreeSet<_> = expect.map(|(p, k)| (p, k.to_string())).into();
    assert_eq!(kinds, expect);
}
