//! Fully-dynamic scenario (the paper's stated future work): a workload
//! mixing insertions, *deletions*, and queries. Insertions unite
//! incrementally in the liveness tracker's partition; a forest deletion
//! triggers a one-pass rebuild over the surviving edges. Shows the cost
//! asymmetry and why the paper calls practical parallel deletion support
//! an open problem.
//!
//! ```sh
//! cargo run --release --example dynamic_deletions [scale]
//! ```

use cc_graph::stats::same_partition;
use cc_unionfind::oracle_labels;
use connectit::{canon_edge, uncanon_edge, DynUpdate, DynamicConnectivity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let n = 1usize << scale;
    let edges = cc_graph::generators::rmat_default(scale, n * 4, 11).edges;
    let mut rng = StdRng::seed_from_u64(3);

    let mut d = DynamicConnectivity::new(n);
    // The live edge set, kept beside the structure for Phase 3.
    let mut live: HashSet<u64> =
        edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| canon_edge(u, v)).collect();

    // Phase 1: insert-only (incremental fast path).
    let t0 = Instant::now();
    for chunk in edges.chunks(100_000) {
        let batch: Vec<DynUpdate> = chunk.iter().map(|&(u, v)| DynUpdate::Insert(u, v)).collect();
        d.process_batch(&batch);
    }
    let insert_time = t0.elapsed().as_secs_f64();
    println!(
        "inserted {} edges incrementally in {:.3}s ({:.2e} edges/s), rebuilds = {}",
        edges.len(),
        insert_time,
        edges.len() as f64 / insert_time,
        d.rebuilds()
    );

    // Phase 2: deletion batches (each forces one recompute before the
    // next query).
    let t1 = Instant::now();
    let mut deleted = 0usize;
    for _ in 0..5 {
        let mut batch: Vec<DynUpdate> = (0..200)
            .map(|_| {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                deleted += 1;
                live.remove(&canon_edge(u, v));
                DynUpdate::Delete(u, v)
            })
            .collect();
        batch.push(DynUpdate::Query(0, (n / 2) as u32));
        d.process_batch(&batch);
    }
    let delete_time = t1.elapsed().as_secs_f64();
    println!(
        "5 deletion batches ({deleted} deletes) in {:.3}s — {} rebuilds at ~{:.3}s each",
        delete_time,
        d.rebuilds(),
        delete_time / d.rebuilds().max(1) as f64
    );
    println!(
        "cost asymmetry: one deletion batch ~= {:.0}x the per-batch insert cost;",
        (delete_time / 5.0) / (insert_time / (edges.len() as f64 / 100_000.0))
    );
    println!("this is exactly why the paper leaves practical parallel deletions as future work.");

    // Phase 3: verify against a from-scratch recompute of the live edges.
    let labels = d.labels();
    let live: Vec<(u32, u32)> = live.into_iter().map(uncanon_edge).collect();
    assert_eq!(d.num_edges(), live.len(), "live edge count");
    assert!(same_partition(&oracle_labels(n, &live), &labels), "partition != recompute");
    println!(
        "final: {} live edges, {} components, equal to a from-scratch recompute",
        d.num_edges(),
        cc_graph::stats::count_distinct_labels(&labels)
    );
}
