//! The legacy snapshot reader, kept only to migrate data directories an
//! earlier release left behind. Those releases stored the live edge set
//! beside the log as `snap-<epoch>.ccsnap` files: the magic `CCSNAP02`,
//! then two [`cc_graph::io::binary`] records — a 16-byte header
//! `(epoch u64 LE, n u64 LE)` and the edge set as
//! [`cc_graph::io::binary::encode_edge_batch`] `(epoch, edges)`. Recovery
//! reads the newest decodable file once as a leading checkpoint, writes a
//! `'C'` WAL record in its place and deletes the files ([`remove_all`]).
//! Loading walks epochs downward and skips undecodable files, so a corrupt
//! latest snapshot degrades to the previous one plus a longer replay,
//! never to a wrong state; stray `.tmp` files from an interrupted write
//! are swept.

use crate::wal::{LogRecord, WalError};
use cc_graph::io::binary::{self, CodecError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Magic prefix of the legacy snapshot files this build migrates.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CCSNAP02";

/// The snapshot file name for an epoch.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:020}.ccsnap"))
}

fn parse_snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?.strip_suffix(".ccsnap")?.parse().ok()
}

/// Reads and fully validates one snapshot file, as the epoch and
/// [`LogRecord::Checkpoint`] recovery applies (with no subscriptions: the
/// log beside a legacy snapshot restates those as `'S'` records).
pub fn read_snapshot(path: &Path) -> Result<(u64, LogRecord), WalError> {
    let codec = |source: CodecError| WalError::Codec { path: path.to_path_buf(), source };
    let corrupt = |detail: String| WalError::Corrupt { path: path.to_path_buf(), detail };
    let file =
        File::open(path).map_err(|e| WalError::Io { path: path.to_path_buf(), source: e })?;
    let mut reader = BufReader::new(file);
    binary::read_magic(&mut reader, SNAPSHOT_MAGIC).map_err(codec)?;
    let mut records = binary::RecordReader::new(reader, binary::MAGIC_LEN as u64);
    let header = records.next().map_err(codec)?.filter(|h| h.len() == 16);
    let header = header.ok_or_else(|| corrupt("no 16-byte header record".into()))?;
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let (epoch, n) = (le(&header[..8]), usize::try_from(le(&header[8..])).unwrap_or(usize::MAX));
    let at = records.offset();
    let payload = records.next().map_err(codec)?;
    let payload = payload.ok_or_else(|| corrupt("snapshot has no edge record".into()))?;
    let (edge_epoch, edges) = binary::decode_edge_batch(&payload, at).map_err(codec)?;
    if edge_epoch != epoch {
        return Err(corrupt(format!(
            "snapshot header frozen at epoch {epoch} but edge set at {edge_epoch}"
        )));
    }
    Ok((epoch, LogRecord::Checkpoint { n, subs: Vec::new(), edges }))
}

/// Loads the newest decodable snapshot in `dir` (`Ok(None)` if there is
/// none), skipping corrupt files and sweeping stray `.tmp` leftovers.
///
/// Snapshot files present but **none** decodable is a hard error, not
/// `Ok(None)`: the log segments they cover were pruned, so "no snapshot"
/// and "all snapshots corrupt" recover very different histories —
/// silently picking the empty one would serve a wrong partition.
pub fn load_latest(dir: &Path) -> Result<Option<(u64, LogRecord)>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io { path: dir.to_path_buf(), source: e }),
    };
    let mut epochs: Vec<u64> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            // An interrupted write; the real name was never created.
            let _ = std::fs::remove_file(entry.path());
        } else if let Some(e) = parse_snapshot_epoch(name) {
            epochs.push(e);
        }
    }
    epochs.sort_unstable();
    let mut last_err = None;
    for &epoch in epochs.iter().rev() {
        let path = snapshot_path(dir, epoch);
        match read_snapshot(&path) {
            Ok((stored, record)) if stored == epoch => return Ok(Some((epoch, record))),
            Ok((stored, _)) => {
                let detail = format!("snapshot named for epoch {epoch} stores {stored}");
                last_err = Some(WalError::Corrupt { path, detail });
            }
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        None => Ok(None),
        Some(e) => Err(WalError::Corrupt {
            path: dir.to_path_buf(),
            detail: format!(
                "{} snapshot file(s) present but none decodable (last failure: {e}); \
                 refusing to recover as if no snapshot was ever taken",
                epochs.len()
            ),
        }),
    }
}

/// Deletes every legacy snapshot file in `dir` (best-effort: one left
/// behind is migrated again at the next start).
pub fn remove_all(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_str().and_then(parse_snapshot_epoch).is_some() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufWriter, Write};

    fn tmp_dir(tag: &str) -> PathBuf {
        crate::scratch_dir(&format!("snap_{tag}"))
    }

    /// Hand-writes a snapshot file: `magic`, then each payload as a record.
    fn write_raw(path: &Path, magic: &[u8; 8], records: &[Vec<u8>]) {
        let mut w = BufWriter::new(File::create(path).expect("create"));
        binary::write_magic(&mut w, magic).expect("magic");
        for r in records {
            binary::append_record(&mut w, r).expect("record");
        }
        w.flush().expect("flush");
    }

    /// Writes a `CCSNAP02` file as the earlier releases did.
    fn write_legacy(dir: &Path, epoch: u64, n: u64, edges: &[(u32, u32)]) {
        let mut header = epoch.to_le_bytes().to_vec();
        header.extend_from_slice(&n.to_le_bytes());
        let body = binary::encode_edge_batch(epoch, edges);
        write_raw(&snapshot_path(dir, epoch), SNAPSHOT_MAGIC, &[header, body]);
    }

    #[test]
    fn write_load_roundtrip_prefers_newest() {
        let dir = tmp_dir("roundtrip");
        write_legacy(&dir, 3, 10, &[]);
        write_legacy(&dir, 8, 10, &[(0, 1), (1, 2)]);
        let want = LogRecord::Checkpoint { n: 10, subs: vec![], edges: vec![(0, 1), (1, 2)] };
        assert_eq!(load_latest(&dir).expect("load"), Some((8, want)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The label-array format before `CCSNAP02` is no longer read: its
    /// magic is a typed bad-magic error, and the loader falls back past
    /// it to an older current-format snapshot.
    #[test]
    fn ccsnap01_file_is_bad_magic_and_load_latest_falls_back_past_it() {
        let dir = tmp_dir("v1");
        write_legacy(&dir, 2, 3, &[(1, 2)]);
        let v1 = snapshot_path(&dir, 4);
        let labels = binary::encode_labels(4, &[0, 0, 2]);
        write_raw(&v1, b"CCSNAP01", &[labels, binary::encode_edge_batch(4, &[(0, 1)])]);
        let err = read_snapshot(&v1).unwrap_err();
        assert!(
            matches!(err, WalError::Codec { source: CodecError::BadMagic { .. }, .. }),
            "{err}"
        );
        let want = LogRecord::Checkpoint { n: 3, subs: vec![], edges: vec![(1, 2)] };
        assert_eq!(load_latest(&dir).expect("load"), Some((2, want)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A label-only `CCSNAP01` file alone in the directory is a typed
    /// error both to read and to recover from: never a fresh start.
    #[test]
    fn v1_label_only_file_is_a_typed_corrupt_error() {
        let dir = tmp_dir("v1labels");
        let path = snapshot_path(&dir, 4);
        write_raw(&path, b"CCSNAP01", &[binary::encode_labels(4, &[0, 0, 2])]);
        let err = read_snapshot(&path).unwrap_err();
        assert!(
            matches!(err, WalError::Codec { source: CodecError::BadMagic { .. }, .. }),
            "{err}"
        );
        let err = load_latest(&dir).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("none decodable"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_edge_record_epoch_is_corrupt() {
        let dir = tmp_dir("mismatch");
        let path = snapshot_path(&dir, 6);
        let mut header = 6u64.to_le_bytes().to_vec();
        header.extend_from_slice(&2u64.to_le_bytes());
        write_raw(&path, SNAPSHOT_MAGIC, &[header, binary::encode_edge_batch(5, &[(0, 1)])]);
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("edge set at 5"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        write_legacy(&dir, 2, 6, &[(0, 1)]);
        write_legacy(&dir, 5, 6, &[(2, 3)]);
        // Flip a byte in the newest snapshot's payload.
        let newest = snapshot_path(&dir, 5);
        let mut bytes = std::fs::read(&newest).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("write");
        let want = LogRecord::Checkpoint { n: 6, subs: vec![], edges: vec![(0, 1)] };
        assert_eq!(load_latest(&dir).expect("load"), Some((2, want)));
        // Direct reads of the corrupt file surface typed context.
        let err = read_snapshot(&newest).unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_snapshots_corrupt_is_a_hard_error_not_fresh_start() {
        let dir = tmp_dir("allcorrupt");
        write_legacy(&dir, 7, 3, &[(0, 1)]);
        let path = snapshot_path(&dir, 7);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        // Older snapshots are pruned in normal operation, so treating
        // "only snapshot corrupt" as "no snapshot" would silently lose
        // every pre-snapshot edge.
        let err = match load_latest(&dir) {
            Err(e) => e.to_string(),
            Ok(s) => panic!("must not recover: got {s:?}"),
        };
        assert!(err.contains("none decodable"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_leftovers_are_ignored_and_swept() {
        let dir = tmp_dir("tmp");
        std::fs::write(dir.join("snap-00000000000000000009.ccsnap.tmp"), b"partial")
            .expect("write");
        assert!(load_latest(&dir).expect("load").is_none());
        assert!(!dir.join("snap-00000000000000000009.ccsnap.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = tmp_dir("empty");
        assert!(load_latest(&dir).expect("load").is_none());
        assert!(load_latest(&dir.join("nope")).expect("load").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_all_deletes_every_snapshot_file_and_nothing_else() {
        let dir = tmp_dir("remove");
        for e in [1u64, 4, 9] {
            write_legacy(&dir, e, 2, &[]);
        }
        std::fs::write(dir.join("wal-00000000.log"), b"CCWALS02").expect("write");
        remove_all(&dir);
        assert!(load_latest(&dir).expect("load").is_none());
        assert!(dir.join("wal-00000000.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
