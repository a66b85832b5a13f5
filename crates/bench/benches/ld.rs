//! LD kernel micro-benchmarks: scalar r², row kernel, and the tiled
//! popcount GEMM at several sample counts (the quantity the paper's
//! LD-heavy workloads stress), plus the row kernel on cohort-shaped sites
//! with missing calls (the `bench_omega` LD figure's shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omega_bench::BENCH_CONFIG;
use omega_genome::SnpVec;
use omega_ld::{r2_block, r2_row, r2_sites};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

fn sites(n: usize, samples: usize, seed: u64) -> Vec<SnpVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let calls: Vec<u8> = (0..samples).map(|_| rng.gen_range(0..2)).collect();
            SnpVec::from_bits(&calls)
        })
        .collect()
}

fn bench_r2_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("r2_pair");
    group.sample_size(20);
    for samples in [50usize, 1_000, 10_000] {
        let s = sites(2, samples, 1);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(samples), &s, |b, s| {
            b.iter(|| black_box(r2_sites(&s[0], &s[1])))
        });
    }
    group.finish();
}

fn bench_r2_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("r2_row");
    group.sample_size(20);
    let mut out = vec![0.0f32; 256];
    group.throughput(Throughput::Elements(256));
    for samples in [50usize, 1_000] {
        let s = sites(257, samples, 2);
        group.bench_with_input(BenchmarkId::from_parameter(samples), &s, |b, s| {
            b.iter(|| {
                r2_row(&s[0], &s[1..], &mut out);
                black_box(out[0])
            })
        });
    }
    let s = BENCH_CONFIG.ld_sites(257);
    let id = format!("{}-missing{}", BENCH_CONFIG.ld_haplotypes, BENCH_CONFIG.ld_missing_rate);
    group.bench_with_input(BenchmarkId::from_parameter(id), &s, |b, s| {
        b.iter(|| {
            r2_row(&s[0], &s[1..], &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_r2_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("r2_gemm_block");
    group.sample_size(10);
    for (rows, cols, samples) in [(64usize, 256usize, 50usize), (64, 256, 2_000)] {
        let r = sites(rows, samples, 3);
        let cl = sites(cols, samples, 4);
        group.throughput(Throughput::Elements((rows * cols) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}x{samples}")),
            &(r, cl),
            |b, (r, cl)| b.iter(|| black_box(r2_block(r, cl).len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_r2_pair, bench_r2_row, bench_r2_gemm);
criterion_main!(benches);
