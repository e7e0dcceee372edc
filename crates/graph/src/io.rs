//! Edge-list I/O: plain-text (the de-facto interchange format of SNAP /
//! DIMACS-style datasets — one `u v` pair per line, `#` comments, blank
//! lines ignored) and the [`binary`] record codec the durability layer
//! (WAL segments, edge-set snapshots, loadgen checkpoints) frames its
//! on-disk bytes with.

use crate::types::{Edge, EdgeList};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// A malformed edge-list input.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is not `u v` with integer endpoints.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::BadLine { line, content } => {
                write!(f, "malformed edge at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// The 1-based line number of a malformed line, if this is a parse
    /// (rather than I/O) failure.
    pub fn line(&self) -> Option<usize> {
        match self {
            ParseError::Io(_) => None,
            ParseError::BadLine { line, .. } => Some(*line),
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// A malformed line converts to a proper `InvalidData` [`std::io::Error`]
/// whose message carries the line number, so callers plumbing edge-list
/// loading through `io::Result` (the server's dataset loading does) keep
/// the diagnostic instead of panicking mid-parse.
impl From<ParseError> for std::io::Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Io(io) => io,
            bad @ ParseError::BadLine { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, bad.to_string())
            }
        }
    }
}

/// Parses an edge list from a reader. The vertex-count bound is
/// `max(endpoint) + 1` unless `min_vertices` is larger.
pub fn read_edge_list<R: Read>(reader: R, min_vertices: usize) -> Result<EdgeList, ParseError> {
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_v = 0u32;
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u32> { tok?.parse().ok() };
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => {
                max_v = max_v.max(u).max(v);
                edges.push((u, v));
            }
            _ => return Err(ParseError::BadLine { line: i + 1, content: trimmed.to_string() }),
        }
    }
    let n = if edges.is_empty() { 0 } else { max_v as usize + 1 }.max(min_vertices);
    Ok(EdgeList::new(n, edges))
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, ParseError> {
    read_edge_list(std::fs::File::open(path)?, 0)
}

/// Writes an edge list as text (`# n m` header then one edge per line).
pub fn write_edge_list<W: Write>(writer: W, el: &EdgeList) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", el.num_vertices, el.edges.len())?;
    for &(u, v) in &el.edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Writes an edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(path: P, el: &EdgeList) -> std::io::Result<()> {
    write_edge_list(std::fs::File::create(path)?, el)
}

pub mod binary {
    //! The shared binary record codec: length-prefixed, CRC-checksummed
    //! frames behind an 8-byte file magic, plus the two payload layouts
    //! the durability stack stores in them (edge batches and label
    //! arrays).
    //!
    //! ## Frame layout
    //!
    //! A file is `magic (8 bytes)` followed by zero or more records, each
    //!
    //! ```text
    //! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
    //! ```
    //!
    //! where the CRC (IEEE polynomial) covers the payload only. Readers
    //! track their byte offset, so every decode failure is a typed
    //! [`CodecError`] carrying where in the file it happened — the WAL
    //! layer adds the segment path on top. Truncation mid-header or
    //! mid-payload is distinguished from checksum corruption: a torn tail
    //! (a crash mid-append) is expected and recoverable; a CRC mismatch
    //! on a complete record is not.

    use std::io::{Read, Write};

    /// Length of the file magic prefix.
    pub const MAGIC_LEN: usize = 8;

    /// Upper bound on a record payload (guards against interpreting
    /// garbage length prefixes as multi-gigabyte allocations).
    pub const MAX_PAYLOAD: u32 = 1 << 30;

    /// IEEE CRC-32 lookup tables for slicing-by-8, built at compile time:
    /// `CRC_TABLES[0]` is the byte-at-a-time table, and `CRC_TABLES[k]`
    /// advances a byte through `k` further zero bytes, so eight bytes fold
    /// in per step. Every record is checksummed once when it is written and
    /// again each time recovery or a replication sender reads it.
    const CRC_TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut i = 0;
        while i < 256 {
            let mut k = 1;
            while k < 8 {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
                k += 1;
            }
            i += 1;
        }
        t
    };

    /// IEEE CRC-32 of `bytes` (the checksum every record frame carries).
    pub fn crc32(bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let mut c = 0xFFFF_FFFFu32;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// A failure decoding a binary record stream, with byte-offset
    /// context (the WAL layer wraps this with the segment path).
    #[derive(Debug)]
    pub enum CodecError {
        /// Underlying I/O failure.
        Io(std::io::Error),
        /// The file does not start with the expected magic (or is shorter
        /// than the magic itself — `found` holds what was there).
        BadMagic {
            /// The magic the reader expected.
            expected: [u8; MAGIC_LEN],
            /// The bytes actually present (may be shorter than 8).
            found: Vec<u8>,
        },
        /// The stream ended inside a record's 8-byte `len`+`crc` header.
        TruncatedHeader {
            /// Byte offset of the record start.
            offset: u64,
            /// How many header bytes were present.
            have: usize,
        },
        /// The stream ended inside a record's payload.
        TruncatedPayload {
            /// Byte offset of the record start.
            offset: u64,
            /// The payload length the header promised.
            want: u32,
            /// How many payload bytes were present.
            have: usize,
        },
        /// A complete record whose payload fails its checksum.
        CrcMismatch {
            /// Byte offset of the record start.
            offset: u64,
            /// The checksum stored in the frame.
            stored: u32,
            /// The checksum computed over the payload.
            computed: u32,
        },
        /// A length prefix exceeding [`MAX_PAYLOAD`] (garbage framing).
        OversizedRecord {
            /// Byte offset of the record start.
            offset: u64,
            /// The implausible length.
            len: u32,
        },
        /// A structurally invalid payload inside a well-framed record.
        BadPayload {
            /// Byte offset of the record start.
            offset: u64,
            /// What was wrong with it.
            reason: String,
        },
    }

    impl std::fmt::Display for CodecError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                CodecError::Io(e) => write!(f, "i/o error: {e}"),
                CodecError::BadMagic { expected, found } => {
                    write!(f, "bad file magic at offset 0: expected {expected:?}, found {found:?}")
                }
                CodecError::TruncatedHeader { offset, have } => {
                    write!(f, "truncated record header at offset {offset}: {have} of 8 bytes")
                }
                CodecError::TruncatedPayload { offset, want, have } => {
                    write!(f, "truncated record payload at offset {offset}: {have} of {want} bytes")
                }
                CodecError::CrcMismatch { offset, stored, computed } => write!(
                    f,
                    "crc mismatch at offset {offset}: stored {stored:#010x}, \
                     computed {computed:#010x}"
                ),
                CodecError::OversizedRecord { offset, len } => write!(
                    f,
                    "implausible record length {len} at offset {offset} (max {MAX_PAYLOAD})"
                ),
                CodecError::BadPayload { offset, reason } => {
                    write!(f, "bad payload at offset {offset}: {reason}")
                }
            }
        }
    }

    impl std::error::Error for CodecError {}

    impl From<std::io::Error> for CodecError {
        fn from(e: std::io::Error) -> Self {
            CodecError::Io(e)
        }
    }

    impl CodecError {
        /// The byte offset of the failing record, when known.
        pub fn offset(&self) -> Option<u64> {
            match self {
                CodecError::Io(_) | CodecError::BadMagic { .. } => None,
                CodecError::TruncatedHeader { offset, .. }
                | CodecError::TruncatedPayload { offset, .. }
                | CodecError::CrcMismatch { offset, .. }
                | CodecError::OversizedRecord { offset, .. }
                | CodecError::BadPayload { offset, .. } => Some(*offset),
            }
        }

        /// Whether this failure is a clean truncation (the bytes simply
        /// stop) rather than corruption of bytes that are present. A
        /// short magic also counts: a file can be torn before its header
        /// finished writing.
        pub fn is_truncation(&self) -> bool {
            matches!(self, CodecError::TruncatedHeader { .. } | CodecError::TruncatedPayload { .. })
                || matches!(self, CodecError::BadMagic { found, .. } if found.len() < MAGIC_LEN)
        }
    }

    /// Writes the 8-byte file magic.
    pub fn write_magic<W: Write>(w: &mut W, magic: &[u8; MAGIC_LEN]) -> std::io::Result<()> {
        w.write_all(magic)
    }

    /// Reads and verifies the 8-byte file magic. A short read yields
    /// [`CodecError::BadMagic`] with the partial bytes (which
    /// [`CodecError::is_truncation`] classifies as a torn file).
    pub fn read_magic<R: Read>(r: &mut R, expected: &[u8; MAGIC_LEN]) -> Result<(), CodecError> {
        let mut buf = Vec::with_capacity(MAGIC_LEN);
        let mut chunk = [0u8; MAGIC_LEN];
        let mut got = 0;
        while got < MAGIC_LEN {
            let k = r.read(&mut chunk[..MAGIC_LEN - got])?;
            if k == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..k]);
            got += k;
        }
        if buf.as_slice() != expected {
            return Err(CodecError::BadMagic { expected: *expected, found: buf });
        }
        Ok(())
    }

    /// Appends one framed record; returns the number of bytes written
    /// (8 + payload length).
    pub fn append_record<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<u64> {
        assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "payload exceeds MAX_PAYLOAD");
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)?;
        Ok(8 + payload.len() as u64)
    }

    /// Reads up to `buf.len()` bytes, stopping early only at EOF; returns
    /// how many bytes were read.
    fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut got = 0;
        while got < buf.len() {
            let k = r.read(&mut buf[got..])?;
            if k == 0 {
                break;
            }
            got += k;
        }
        Ok(got)
    }

    /// A cursor over the framed records of a stream, tracking byte
    /// offsets for error context.
    pub struct RecordReader<R: Read> {
        r: R,
        offset: u64,
    }

    impl<R: Read> RecordReader<R> {
        /// Wraps a reader positioned just past the file magic;
        /// `start_offset` is that position (normally [`MAGIC_LEN`]).
        pub fn new(r: R, start_offset: u64) -> Self {
            RecordReader { r, offset: start_offset }
        }

        /// The byte offset the next record would start at.
        pub fn offset(&self) -> u64 {
            self.offset
        }

        /// Reads the next record's payload; `Ok(None)` on clean EOF (the
        /// stream ends exactly at a record boundary).
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
            let at = self.offset;
            let mut header = [0u8; 8];
            let got = read_up_to(&mut self.r, &mut header)?;
            if got == 0 {
                return Ok(None);
            }
            if got < 8 {
                return Err(CodecError::TruncatedHeader { offset: at, have: got });
            }
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            let stored = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len > MAX_PAYLOAD {
                return Err(CodecError::OversizedRecord { offset: at, len });
            }
            let mut payload = vec![0u8; len as usize];
            let got = read_up_to(&mut self.r, &mut payload)?;
            if got < len as usize {
                return Err(CodecError::TruncatedPayload { offset: at, want: len, have: got });
            }
            let computed = crc32(&payload);
            if computed != stored {
                return Err(CodecError::CrcMismatch { offset: at, stored, computed });
            }
            self.offset += 8 + len as u64;
            Ok(Some(payload))
        }
    }

    /// A [`Read`] adapter that makes [`RecordReader`] safe on a *live
    /// socket*: transient failures (`Interrupted`, and — for sockets
    /// carrying a read timeout — `WouldBlock`/`TimedOut`) retry the read
    /// instead of surfacing mid-record, which would desynchronize the
    /// frame stream. On each transient failure `keep_going` decides
    /// whether to retry or give up (e.g. a shutdown flag flipped); giving
    /// up surfaces the original error. A read timeout therefore never
    /// tears a record: either the bytes eventually arrive, or the caller
    /// asked to stop and the whole stream is abandoned.
    pub struct RetryRead<R, F> {
        inner: R,
        keep_going: F,
    }

    impl<R: Read, F: FnMut() -> bool> RetryRead<R, F> {
        /// Wraps `inner`; `keep_going` is consulted on every transient
        /// read failure.
        pub fn new(inner: R, keep_going: F) -> Self {
            RetryRead { inner, keep_going }
        }
    }

    impl<R: Read, F: FnMut() -> bool> Read for RetryRead<R, F> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.inner.read(buf) {
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if (self.keep_going)() {
                            continue;
                        }
                        return Err(e);
                    }
                    r => return r,
                }
            }
        }
    }

    /// Encodes an edge batch payload: `epoch (u64 LE)`, `m (u32 LE)`,
    /// then `m` pairs of `u32 LE` endpoints. The WAL stores one of these
    /// per applied service batch.
    pub fn encode_edge_batch(epoch: u64, edges: &[(u32, u32)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 8 * edges.len());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for &(u, v) in edges {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes an [`encode_edge_batch`] payload; `offset` is the record's
    /// byte offset, used only for error context.
    pub fn decode_edge_batch(
        payload: &[u8],
        offset: u64,
    ) -> Result<(u64, Vec<(u32, u32)>), CodecError> {
        let bad = |reason: String| CodecError::BadPayload { offset, reason };
        if payload.len() < 12 {
            return Err(bad(format!("edge batch header needs 12 bytes, have {}", payload.len())));
        }
        let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let m = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
        if payload.len() != 12 + 8 * m {
            return Err(bad(format!(
                "edge batch of {m} edges needs {} bytes, have {}",
                12 + 8 * m,
                payload.len()
            )));
        }
        let mut edges = Vec::with_capacity(m);
        for i in 0..m {
            let at = 12 + 8 * i;
            let u = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().expect("4 bytes"));
            edges.push((u, v));
        }
        Ok((epoch, edges))
    }

    /// Encodes a label-array payload: `epoch (u64 LE)`, `n (u64 LE)`,
    /// then `n` labels as `u32 LE`. Loadgen checkpoints store these (and
    /// pre-edge-set `CCSNAP01` snapshots led with one).
    pub fn encode_labels(epoch: u64, labels: &[u32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * labels.len());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(labels.len() as u64).to_le_bytes());
        for &l in labels {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Decodes an [`encode_labels`] payload.
    pub fn decode_labels(payload: &[u8], offset: u64) -> Result<(u64, Vec<u32>), CodecError> {
        let bad = |reason: String| CodecError::BadPayload { offset, reason };
        if payload.len() < 16 {
            return Err(bad(format!("label header needs 16 bytes, have {}", payload.len())));
        }
        let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let n = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")) as usize;
        if payload.len() != 16 + 4 * n {
            return Err(bad(format!(
                "label array of {n} entries needs {} bytes, have {}",
                16 + 4 * n,
                payload.len()
            )));
        }
        let labels = (0..n)
            .map(|i| {
                let at = 16 + 4 * i;
                u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"))
            })
            .collect();
        Ok((epoch, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_with_comments() {
        let input = "# a comment\n0 1\n\n2 3\n% another\n1 2\n";
        let el = read_edge_list(input.as_bytes(), 0).expect("parses");
        assert_eq!(el.num_vertices, 4);
        assert_eq!(el.edges, vec![(0, 1), (2, 3), (1, 2)]);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = read_edge_list("0 1\nfoo bar\n".as_bytes(), 0).unwrap_err();
        match err {
            ParseError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn parse_rejects_truncated_line() {
        // A file cut off mid-edge: the final line has one endpoint.
        let err = read_edge_list("0 1\n2 3\n4".as_bytes(), 0).unwrap_err();
        assert_eq!(err.line(), Some(3));
        // And a lone trailing digit fragment mid-number parses as a valid
        // (if surprising) vertex id only when paired; alone it is an error.
        assert!(read_edge_list("7 8\n9\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn parse_rejects_negative_and_overflow() {
        let err = read_edge_list("-1 2\n".as_bytes(), 0).unwrap_err();
        assert_eq!(err.line(), Some(1));
        let err = read_edge_list("0 1\n99999999999 3\n".as_bytes(), 0).unwrap_err();
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn parse_error_converts_to_io_error_with_line() {
        let err = read_edge_list("0 1\n\u{0} garbage\n".as_bytes(), 0).unwrap_err();
        let io_err: std::io::Error = err.into();
        assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidData);
        let msg = io_err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        // Blank comment-only files stay fine through the io::Error path.
        let ok: Result<_, std::io::Error> =
            read_edge_list("# only comments\n".as_bytes(), 0).map_err(Into::into);
        assert_eq!(ok.expect("parses").num_vertices, 0);
    }

    #[test]
    fn parse_error_line_accessor() {
        let io_side = ParseError::Io(std::io::Error::other("boom"));
        assert_eq!(io_side.line(), None);
    }

    #[test]
    fn min_vertices_extends_bound() {
        let el = read_edge_list("0 1\n".as_bytes(), 10).expect("parses");
        assert_eq!(el.num_vertices, 10);
    }

    #[test]
    fn empty_input() {
        let el = read_edge_list("".as_bytes(), 0).expect("parses");
        assert!(el.is_empty());
        assert_eq!(el.num_vertices, 0);
    }

    #[test]
    fn roundtrip() {
        let el = crate::generators::rmat_default(8, 500, 3);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &el).expect("writes");
        let back = read_edge_list(buf.as_slice(), el.num_vertices).expect("parses");
        assert_eq!(back.edges, el.edges);
        assert_eq!(back.num_vertices, el.num_vertices);
    }

    const MAGIC: &[u8; 8] = b"CCTEST01";

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        binary::write_magic(&mut buf, MAGIC).expect("magic");
        for p in payloads {
            binary::append_record(&mut buf, p).expect("record");
        }
        buf
    }

    fn read_all(bytes: &[u8]) -> Result<Vec<Vec<u8>>, binary::CodecError> {
        let mut cur = std::io::Cursor::new(bytes);
        binary::read_magic(&mut cur, MAGIC)?;
        let mut r = binary::RecordReader::new(cur, binary::MAGIC_LEN as u64);
        let mut out = Vec::new();
        while let Some(p) = r.next()? {
            out.push(p);
        }
        Ok(out)
    }

    #[test]
    fn binary_roundtrip_and_offsets() {
        let buf = framed(&[b"hello", b"", b"world!"]);
        let got = read_all(&buf).expect("reads");
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]);
        // Offsets advance by 8 + len per record.
        let mut cur = std::io::Cursor::new(&buf[8..]);
        let mut r = binary::RecordReader::new(&mut cur, 8);
        r.next().expect("rec").expect("some");
        assert_eq!(r.offset(), 8 + 8 + 5);
    }

    #[test]
    fn binary_bit_flipped_crc_is_typed_with_offset() {
        let mut buf = framed(&[b"aaaa", b"bbbb"]);
        // Flip one bit in the second record's stored CRC (offset 8 magic
        // + 12 first record + 4 len).
        let second = 8 + (8 + 4);
        buf[second + 4] ^= 0x01;
        let err = read_all(&buf).unwrap_err();
        match &err {
            binary::CodecError::CrcMismatch { offset, stored, computed } => {
                assert_eq!(*offset, second as u64);
                assert_ne!(stored, computed);
            }
            other => panic!("expected CrcMismatch, got {other}"),
        }
        assert!(!err.is_truncation());
        assert_eq!(err.offset(), Some(second as u64));
        let msg = err.to_string();
        assert!(msg.contains(&format!("offset {second}")), "{msg}");
    }

    #[test]
    fn binary_flipped_payload_bit_is_caught_too() {
        let mut buf = framed(&[b"payload-bytes"]);
        let last = buf.len() - 1;
        buf[last] ^= 0x80;
        assert!(matches!(read_all(&buf).unwrap_err(), binary::CodecError::CrcMismatch { .. }));
    }

    #[test]
    fn binary_truncated_length_prefix_is_torn() {
        let buf = framed(&[b"aaaa", b"bbbb"]);
        // Cut inside the second record's 8-byte header.
        let cut = 8 + (8 + 4) + 3;
        let err = read_all(&buf[..cut]).unwrap_err();
        match &err {
            binary::CodecError::TruncatedHeader { offset, have } => {
                assert_eq!(*offset, (8 + 8 + 4) as u64);
                assert_eq!(*have, 3);
            }
            other => panic!("expected TruncatedHeader, got {other}"),
        }
        assert!(err.is_truncation());
        // Cut inside the payload instead.
        let err = read_all(&buf[..8 + 8 + 2]).unwrap_err();
        assert!(matches!(err, binary::CodecError::TruncatedPayload { have: 2, want: 4, .. }));
        assert!(err.is_truncation());
    }

    #[test]
    fn binary_garbage_header_is_typed() {
        let mut buf = framed(&[b"aaaa"]);
        buf[0..8].copy_from_slice(b"GARBAGE!");
        let err = read_all(&buf).unwrap_err();
        match &err {
            binary::CodecError::BadMagic { expected, found } => {
                assert_eq!(expected, MAGIC);
                assert_eq!(found.as_slice(), b"GARBAGE!");
            }
            other => panic!("expected BadMagic, got {other}"),
        }
        // A full-but-wrong magic is corruption, not truncation...
        assert!(!err.is_truncation());
        // ...while a file torn inside the magic is a truncation.
        let err = read_all(&framed(&[])[..5]).unwrap_err();
        assert!(matches!(&err, binary::CodecError::BadMagic { found, .. } if found.len() == 5));
        assert!(err.is_truncation());
    }

    /// A reader that interleaves timeout failures between real bytes —
    /// the shape of a socket with a read timeout delivering a record in
    /// dribbles.
    struct Dribble {
        bytes: Vec<u8>,
        at: usize,
        /// Fail with `WouldBlock` before every real byte.
        block_next: bool,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.bytes.len() {
                return Ok(0);
            }
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "not yet"));
            }
            self.block_next = true;
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn retry_read_keeps_records_whole_across_timeouts() {
        let buf = framed(&[b"hello", b"streamed"]);
        let dribble = Dribble { bytes: buf, at: 0, block_next: true };
        // keep_going => true: every timeout retries, the stream decodes
        // exactly as if it had arrived in one piece.
        let mut r = binary::RetryRead::new(dribble, || true);
        binary::read_magic(&mut r, MAGIC).expect("magic survives timeouts");
        let mut records = binary::RecordReader::new(r, binary::MAGIC_LEN as u64);
        assert_eq!(records.next().expect("rec").expect("some"), b"hello".to_vec());
        assert_eq!(records.next().expect("rec").expect("some"), b"streamed".to_vec());
        assert!(records.next().expect("eof").is_none());
    }

    #[test]
    fn retry_read_surfaces_timeout_when_asked_to_stop() {
        let buf = framed(&[b"hello"]);
        let dribble = Dribble { bytes: buf, at: 0, block_next: true };
        // keep_going flips false after a few retries (a shutdown flag).
        let mut budget = 3;
        let mut r = binary::RetryRead::new(dribble, move || {
            budget -= 1;
            budget > 0
        });
        let err = binary::read_magic(&mut r, MAGIC).unwrap_err();
        match err {
            binary::CodecError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock)
            }
            other => panic!("expected Io(WouldBlock), got {other}"),
        }
    }

    #[test]
    fn binary_oversized_length_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        binary::write_magic(&mut buf, MAGIC).expect("magic");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_all(&buf).unwrap_err();
        assert!(matches!(err, binary::CodecError::OversizedRecord { len: u32::MAX, .. }));
    }

    #[test]
    fn binary_edge_batch_payload_roundtrip() {
        let edges = vec![(0u32, 1u32), (7, 3), (u32::MAX, 0)];
        let payload = binary::encode_edge_batch(42, &edges);
        let (epoch, back) = binary::decode_edge_batch(&payload, 0).expect("decodes");
        assert_eq!(epoch, 42);
        assert_eq!(back, edges);
        // Empty batches (query-only epochs) roundtrip too.
        let (epoch, back) =
            binary::decode_edge_batch(&binary::encode_edge_batch(7, &[]), 0).expect("decodes");
        assert_eq!((epoch, back.len()), (7, 0));
        // Structurally short payloads are BadPayload with offset context.
        let err = binary::decode_edge_batch(&payload[..payload.len() - 1], 99).unwrap_err();
        assert!(matches!(err, binary::CodecError::BadPayload { offset: 99, .. }), "{err}");
        let err = binary::decode_edge_batch(&[0u8; 3], 5).unwrap_err();
        assert!(err.to_string().contains("offset 5"), "{err}");
    }

    #[test]
    fn binary_labels_payload_roundtrip() {
        let labels: Vec<u32> = (0..100).map(|i| i / 3).collect();
        let payload = binary::encode_labels(9, &labels);
        let (epoch, back) = binary::decode_labels(&payload, 0).expect("decodes");
        assert_eq!(epoch, 9);
        assert_eq!(back, labels);
        let err = binary::decode_labels(&payload[..20], 3).unwrap_err();
        assert!(matches!(err, binary::CodecError::BadPayload { offset: 3, .. }));
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(binary::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(binary::crc32(b""), 0);
        // Slicing-by-8 agrees with the bitwise definition across every
        // split into whole words and a remainder.
        let bitwise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            !c
        };
        let bytes: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..bytes.len() {
            assert_eq!(binary::crc32(&bytes[..len]), bitwise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let el = crate::generators::rmat_default(7, 200, 9);
        let path = std::env::temp_dir().join("cc_graph_io_test.el");
        write_edge_list_file(&path, &el).expect("writes");
        let back = read_edge_list_file(&path).expect("reads");
        assert_eq!(back.edges, el.edges);
        let _ = std::fs::remove_file(&path);
    }
}
