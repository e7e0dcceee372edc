//! Crash-point property tests for the durability subsystem: random op
//! sequences — inserts, **deletions**, and queries — are served through
//! a durable service, then the WAL is truncated at **every** record
//! boundary (and at points mid-record, including mid-magic) and
//! recovered. For each crash point the recovered partition must equal
//! the dynamic oracle over exactly the durable prefix — torn tails are
//! detected and dropped, never replayed, and deletion-bearing (`'D'`)
//! records replay in order rather than being dropped as unknown record
//! types — and the resumed epoch must match the number of surviving
//! batches.
//!
//! Truncation points (and the epoch each surviving record carries) are
//! computed here with an independent walk of the segment frames (reading
//! each record's kind and epoch header, so `'I'`, `'D'` and `'C'` records
//! are all covered), so a recovery scan that kept one record too many or
//! too few fails against the oracle, not against itself.
//!
//! With a checkpoint cadence the final segment opens with a `'C'` record
//! whose write pruned every older segment. A crash cannot leave that
//! record torn *after* its prune (the prune waits for its fsync), so cuts
//! before its end run against the directory as it stood before the prune
//! — hard links taken before the checkpointing batch keep those segments
//! — and must recover the oracle over the older segments.

use cc_baselines::DynamicOracle;
use cc_graph::io::binary;
use cc_graph::stats::same_partition;
use cc_server::{wal, DurabilityConfig, FsyncPolicy, Service, ServiceConfig};
use connectit::Update;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    cc_server::scratch_dir(&format!("prop_rec_{tag}"))
}

fn durable_cfg(n: usize, dir: &Path, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        n,
        shards: 2,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Off,
            snapshot_every,
            ..DurabilityConfig::new(dir)
        }),
        ..ServiceConfig::default()
    }
}

/// One record of a WAL segment, as seen by an independent frame walk.
struct Extent {
    start: u64,
    end: u64,
    kind: u8,
    epoch: u64,
}

/// Walks a segment's frames without the recovery code path.
fn walk_segment(path: &Path) -> (Vec<Extent>, u64) {
    let bytes = std::fs::read(path).expect("segment readable");
    let mut cur = std::io::Cursor::new(&bytes[binary::MAGIC_LEN..]);
    let mut r = binary::RecordReader::new(&mut cur, binary::MAGIC_LEN as u64);
    let mut extents = Vec::new();
    loop {
        let start = r.offset();
        match r.next().expect("untruncated segment decodes") {
            None => break,
            Some(payload) => {
                let (kind, epoch) = wal::record_header(&payload, start).expect("wal record");
                let epoch = epoch.expect("no subscription records here");
                extents.push(Extent { start, end: r.offset(), kind, epoch });
            }
        }
    }
    (extents, bytes.len() as u64)
}

/// Sorted WAL segment paths in `dir`.
fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("wal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    out.sort();
    out
}

/// The highest record epoch in the given segments, 0 if none.
fn last_epoch(segments: &[PathBuf]) -> u64 {
    segments.iter().filter_map(|p| walk_segment(p).0.last().map(|e| e.epoch)).max().unwrap_or(0)
}

/// Replaces `to` with hard links to every segment in `from`: appends to a
/// linked segment stay visible through the link, and a prune unlinks only
/// the original name.
fn link_segments(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("mkdir");
    for seg in segment_paths(from) {
        std::fs::hard_link(&seg, to.join(seg.file_name().expect("name"))).expect("link");
    }
}

/// Dynamic-oracle labeling after the updates of batches `0..prefix`
/// applied **in order** (deletions make the order load-bearing).
fn oracle_prefix(n: usize, batches: &[Vec<Update>], prefix: usize) -> Vec<u32> {
    let mut oracle = DynamicOracle::new(n);
    for batch in &batches[..prefix] {
        oracle.apply_batch(batch);
    }
    oracle.labels()
}

/// Strategy: vertex count, a flat op script (kind 0–4 insert, 5–6
/// delete, 7 query — enough deletions that most cases carry `'D'`
/// records), a batch size to cut it into, and a checkpoint cadence (0 =
/// none).
#[allow(clippy::type_complexity)]
fn arb_case() -> impl Strategy<Value = (usize, Vec<(u8, u32, u32)>, usize, u64)> {
    (8usize..48).prop_flat_map(|n| {
        let op = (0u8..8, 0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(op, 20..160), 1usize..25, 0u64..4)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_crash_point_recovers_exactly_the_durable_prefix(
        (n, script, batch_size, snapshot_every) in arb_case(),
    ) {
        let base = tmp_dir("run");
        let wal_dir = base.join("wal");
        let batches: Vec<Vec<Update>> = script
            .chunks(batch_size)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&(kind, u, v)| match kind {
                        0..=4 => Update::Insert(u, v),
                        5 | 6 => Update::Delete(u, v),
                        _ => Update::Query(u, v),
                    })
                    .collect()
            })
            .collect();

        // Serve the whole script, one submission (= one batch = one WAL
        // record) at a time, linking the segments aside before each batch
        // whose epoch writes a checkpoint.
        let pre_prune = base.join("pre-prune");
        {
            let mut svc = Service::start(durable_cfg(n, &wal_dir, snapshot_every))
                .expect("durable service");
            let client = svc.client();
            for (epoch, batch) in (1u64..).zip(&batches) {
                if snapshot_every > 0 && epoch % snapshot_every == 0 {
                    link_segments(&wal_dir, &pre_prune);
                }
                client.submit(batch.clone()).expect("submit");
            }
            prop_assert_eq!(client.epoch(), batches.len() as u64,
                "sequential submissions must map 1:1 to batches");
            svc.shutdown();
        }

        // Independent frame walk of the final segment; earlier segments
        // stay intact across every crash point, so their last epoch is
        // part of every durable prefix.
        let segments = segment_paths(&wal_dir);
        let last_seg = segments.last().expect("at least one segment").clone();
        let (extents, file_len) = walk_segment(&last_seg);
        let earlier_last_epoch = last_epoch(&segments[..segments.len() - 1]);
        // Every cadence point wrote its checkpoint, deletions or not: none
        // waits for a clean generation. The last one opens the final
        // segment, and its prune left no older segment behind.
        let epochs = batches.len() as u64;
        let want = epochs.checked_div(snapshot_every).map_or(0, |k| k * snapshot_every);
        let checkpoint_end = match extents.first() {
            Some(e) if e.kind == wal::REC_CHECKPOINT => {
                prop_assert_eq!(e.epoch, want, "newest checkpoint for cadence {}", snapshot_every);
                prop_assert_eq!(segments.len(), 1, "the checkpoint pruned every older segment");
                e.end
            }
            _ => {
                prop_assert_eq!(want, 0, "cadence {} wrote no checkpoint", snapshot_every);
                0
            }
        };
        let last_bytes = std::fs::read(&last_seg).expect("read last segment");

        // Crash points: inside the magic, at the empty-segment boundary,
        // at every record boundary, and twice inside every record.
        let mut cuts: Vec<u64> = vec![3.min(file_len), binary::MAGIC_LEN as u64];
        for e in &extents {
            cuts.push(e.end);
            cuts.push(e.start + 1);
            cuts.push(e.start + (e.end - e.start) / 2);
        }
        cuts.retain(|&c| c <= file_len);
        cuts.sort_unstable();
        cuts.dedup();

        // A final segment holding records yields boundary + two
        // mid-record cuts per record; one still empty yields the
        // mid-magic and clean-empty cuts.
        prop_assert!(
            cuts.len() >= if extents.is_empty() { 2 } else { 4 },
            "every case must exercise several crash points"
        );
        let boundary_cuts: std::collections::HashSet<u64> =
            std::iter::once(binary::MAGIC_LEN as u64).chain(extents.iter().map(|e| e.end)).collect();

        for (ci, &cut) in cuts.iter().enumerate() {
            // Rebuild the directory with the final segment truncated at
            // the crash point; a cut before the checkpoint's end is a
            // crash before its prune.
            let crash_dir = base.join(format!("crash-{ci}"));
            std::fs::create_dir_all(&crash_dir).expect("mkdir");
            let older = if cut < checkpoint_end { &pre_prune } else { &wal_dir };
            for seg in segment_paths(older).iter().filter(|p| p.file_name() != last_seg.file_name())
            {
                std::fs::copy(seg, crash_dir.join(seg.file_name().expect("name"))).expect("copy");
            }
            let to = crash_dir.join(last_seg.file_name().expect("name"));
            std::fs::write(&to, &last_bytes[..cut as usize]).expect("truncate");

            // The durable prefix: everything in older segments, plus
            // final-segment records wholly before the cut.
            let survived = extents.iter().filter(|e| e.end <= cut).map(|e| e.epoch).max();
            let older_last_epoch = if cut < checkpoint_end {
                last_epoch(&segment_paths(&pre_prune))
            } else {
                earlier_last_epoch
            };
            let durable_epoch = survived.unwrap_or(0).max(older_last_epoch);
            let expect = oracle_prefix(n, &batches, durable_epoch as usize);

            let mut svc = Service::start(durable_cfg(n, &crash_dir, 0))
                .expect("recovery from a crash point never fails");
            let client = svc.client();
            prop_assert_eq!(client.epoch(), durable_epoch, "cut at byte {}", cut);
            prop_assert!(
                same_partition(&expect, &client.labels()),
                "cut at byte {} (of {}): recovered partition diverges from the oracle \
                 over the {}-batch durable prefix",
                cut,
                file_len,
                durable_epoch
            );
            // A mid-record cut is a torn tail and must be reported as
            // one; a boundary cut is clean.
            let stats = client.wal_stats().expect("wal stats");
            let torn = !boundary_cuts.contains(&cut);
            prop_assert_eq!(
                stats.contains("torn_bytes=0 "),
                !torn,
                "cut at byte {}: {}",
                cut,
                stats
            );
            svc.shutdown();

            // Second restart from the same directory: the torn tail was
            // physically truncated by the first recovery, so the (now
            // sealed) segment must keep scanning clean and the state
            // must be identical — a crash survivor that can only boot
            // once is not recovered.
            let mut svc = Service::start(durable_cfg(n, &crash_dir, 0))
                .expect("second restart after a crash must also succeed");
            let client = svc.client();
            prop_assert_eq!(client.epoch(), durable_epoch, "second restart, cut {}", cut);
            prop_assert!(
                same_partition(&expect, &client.labels()),
                "cut at byte {}: second restart diverged",
                cut
            );
            let stats = client.wal_stats().expect("wal stats");
            prop_assert!(
                stats.contains("torn_bytes=0 "),
                "cut at byte {}: tail must have been truncated by the first recovery: {}",
                cut,
                stats
            );
            svc.shutdown();
            std::fs::remove_dir_all(&crash_dir).expect("cleanup");
        }
        std::fs::remove_dir_all(&base).expect("cleanup");
    }
}
