//! Service-layer benchmark: mixed insert/query throughput of the full
//! service stack including the group commit and reply fan-out.

use cc_parallel::SplitMix64;
use cc_server::{Client, Service, ServiceConfig};
use connectit::Update;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn mixed_batch(n: usize, ops: usize, seed: u64) -> Vec<Update> {
    let mut rng = SplitMix64::new(seed);
    (0..ops)
        .map(|_| {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            if rng.next_u64().is_multiple_of(2) {
                Update::Insert(u, v)
            } else {
                Update::Query(u, v)
            }
        })
        .collect()
}

fn bench_full_service(c: &mut Criterion) {
    let n = 1usize << 16;
    let ops = 1usize << 14;
    let mut group = c.benchmark_group("service_full_stack");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops as u64));
    group.bench_function("submit_4096_chunks", |b| {
        let svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
            .expect("service");
        let client: Client = svc.client();
        b.iter(|| {
            for chunk in mixed_batch(n, ops, 23).chunks(4096) {
                black_box(client.submit(chunk.to_vec()).expect("submit"));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_full_service);
criterion_main!(benches);
