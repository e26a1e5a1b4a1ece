//! Substrate benchmark: the SGEMM every convolution and fully-connected
//! layer bottoms out in (our cuBLAS stand-in), one group per arm a
//! training step takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tensor::gemm::{sgemm, Transpose};

/// Per-sample conv GEMMs from the paper's Table 5: `(Co, OH*OW, Ci*F*F)`.
const CONV_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("cifar_conv1", 32, 1024, 75),
    ("siamese_conv2", 50, 64, 500),
    ("caffenet_conv3", 384, 169, 2304),
    ("googlenet_conv3", 384, 49, 832),
];

/// One benchmark: name and the `m, n, k` of `C[m×n] = op(A)·op(B)`.
type Shape = (&'static str, usize, usize, usize);

fn bench_gemm(c: &mut Criterion) {
    let conv = |dims: fn(usize, usize, usize) -> (usize, usize, usize)| -> Vec<Shape> {
        CONV_SHAPES
            .iter()
            .map(|&(name, co, ohw, k)| {
                let (m, n, k) = dims(co, ohw, k);
                (name, m, n, k)
            })
            .collect()
    };
    // Forward: out[Co×OHW] = W[Co×K] · col[K×OHW].
    let forward = conv(|co, ohw, k| (co, ohw, k));
    // Weight gradient: dW[Co×K] = dout[Co×OHW] · colᵀ — the dot arm, which
    // every InnerProduct forward (out = x · Wᵀ) also takes.
    let mut dw = conv(|co, ohw, k| (co, k, ohw));
    dw.push(("siamese_ip1_fwd", 64, 500, 800));
    // Data gradient: dcol[K×OHW] = Wᵀ · dout[Co×OHW].
    let dx = conv(|co, ohw, k| (k, ohw, co));

    let groups = [
        ("sgemm", Transpose::No, Transpose::No, forward),
        ("sgemm_dw", Transpose::No, Transpose::Yes, dw),
        ("sgemm_dx", Transpose::Yes, Transpose::No, dx),
    ];
    for (group, ta, tb, shapes) in groups {
        let mut g = c.benchmark_group(group);
        for (name, m, n, k) in shapes {
            let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.2).collect();
            let mut out = vec![0.0f32; m * n];
            g.throughput(Throughput::Elements((2 * m * n * k) as u64));
            g.bench_function(BenchmarkId::from_parameter(name), |bencher| {
                bencher.iter(|| {
                    sgemm(
                        ta,
                        tb,
                        m,
                        n,
                        k,
                        1.0,
                        std::hint::black_box(&a),
                        std::hint::black_box(&b),
                        0.0,
                        &mut out,
                    );
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
