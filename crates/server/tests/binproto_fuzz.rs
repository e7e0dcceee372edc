//! Fuzz/property coverage for the binary frame path: arbitrary byte
//! streams — bit flips, truncations, oversized lengths, sniff-ambiguous
//! prefixes — fed both to the in-process [`FrameAssembler`] and to a
//! live served socket. The invariants: the assembler never panics and
//! never tears a frame (any chunking of a valid stream yields exactly
//! the frames that were framed); damage always surfaces as a typed
//! [`FrameError`] after which the assembler stays poisoned; the live
//! server answers damage with an `ERR` frame and a typed close, and is
//! healthy for the next connection.

use cc_graph::io::binary::crc32;
use cc_server::binproto::{
    self, frame, FrameAssembler, FrameError, MAX_FRAME_PAYLOAD, STREAM_MAGIC,
};
use cc_server::{serve, Role, Service, ServiceConfig, TcpServer, WireClient};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A valid stream: magic plus `frames` framed payloads, concatenated.
fn valid_stream(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut s = STREAM_MAGIC.to_vec();
    for p in frames {
        s.extend_from_slice(&frame(p));
    }
    s
}

/// Drains every completed frame, stopping at (and returning) the first
/// error.
fn drain(asm: &mut FrameAssembler) -> (Vec<Vec<u8>>, Option<FrameError>) {
    let mut out = Vec::new();
    loop {
        match asm.next_frame() {
            Ok(Some(p)) => out.push(p),
            Ok(None) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any chunking of a valid stream reassembles exactly the original
    /// frames: no tearing, no reordering, no damage.
    #[test]
    fn any_chunking_reassembles_exactly(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..300), 0..12),
        cuts in proptest::collection::vec(1usize..40, 1..64),
    ) {
        let stream = valid_stream(&payloads);
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut = cuts.iter().cycle();
        while pos < stream.len() {
            let step = (*cut.next().unwrap()).min(stream.len() - pos);
            asm.push(&stream[pos..pos + step]);
            pos += step;
            let (frames, err) = drain(&mut asm);
            prop_assert!(err.is_none(), "valid stream errored: {:?}", err);
            got.extend(frames);
        }
        prop_assert_eq!(got, payloads);
    }

    /// A truncated valid stream yields a prefix of the frames and no
    /// error — a frame is either delivered whole or not at all.
    #[test]
    fn truncation_never_tears_a_frame(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..200), 1..8),
        keep_num in 0u32..=1000,
    ) {
        let stream = valid_stream(&payloads);
        let keep = STREAM_MAGIC.len()
            + (stream.len() - STREAM_MAGIC.len()) * keep_num as usize / 1000;
        let mut asm = FrameAssembler::new();
        asm.push(&stream[..keep]);
        let (got, err) = drain(&mut asm);
        prop_assert!(err.is_none(), "truncation must starve, not error: {:?}", err);
        prop_assert!(got.len() <= payloads.len());
        prop_assert_eq!(&got[..], &payloads[..got.len()], "delivered frames are exact");
    }

    /// A single flipped bit anywhere past the magic either leaves the
    /// decoded prefix intact or surfaces a typed error — and after any
    /// error the assembler stays poisoned forever (no resync on a
    /// corrupt stream).
    #[test]
    fn bit_flips_surface_typed_errors_and_poison(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64), 1..6),
        flip_num in 0u32..=999,
        bit in 0u8..8,
    ) {
        let mut stream = valid_stream(&payloads);
        let body = stream.len() - STREAM_MAGIC.len();
        let at = STREAM_MAGIC.len() + body * flip_num as usize / 1000;
        let at = at.min(stream.len() - 1);
        stream[at] ^= 1 << bit;
        let mut asm = FrameAssembler::new();
        asm.push(&stream);
        let (got, err) = drain(&mut asm);
        // Whatever was delivered must be an exact prefix (possibly with
        // one frame whose payload absorbed the flip but whose CRC then
        // cannot match — so really: every delivered frame matches or the
        // flip landed beyond it).
        for (i, p) in got.iter().enumerate() {
            if stream_frame_untouched(&payloads, i, at) {
                prop_assert_eq!(p, &payloads[i], "untouched frame {} was altered", i);
            }
        }
        if let Some(e) = err {
            // Poisoned: more bytes never revive it, same error class.
            asm.push(&frame(b"afterlife"));
            let (more, err2) = drain(&mut asm);
            prop_assert!(more.is_empty(), "poisoned assembler delivered frames");
            prop_assert_eq!(err2, Some(e), "poisoned error must be sticky");
        }
    }

    /// Arbitrary garbage after a valid magic never panics: it either
    /// starves (incomplete) or errors typed.
    #[test]
    fn arbitrary_garbage_never_panics(
        garbage in proptest::collection::vec(0u8..=255, 0..2000),
        cuts in proptest::collection::vec(1usize..64, 1..32),
    ) {
        let mut asm = FrameAssembler::new();
        asm.push(&STREAM_MAGIC);
        let mut pos = 0;
        let mut cut = cuts.iter().cycle();
        let mut poisoned = false;
        while pos < garbage.len() {
            let step = (*cut.next().unwrap()).min(garbage.len() - pos);
            asm.push(&garbage[pos..pos + step]);
            pos += step;
            let (_, err) = drain(&mut asm);
            if err.is_some() {
                poisoned = true;
            }
            prop_assert!(!poisoned || err.is_some(), "error class must be sticky");
        }
    }
}

/// Whether frame `i`'s bytes (header included) end before offset `at`
/// in the full stream — i.e. the flip cannot have touched it.
fn stream_frame_untouched(payloads: &[Vec<u8>], i: usize, at: usize) -> bool {
    let mut end = STREAM_MAGIC.len();
    for p in payloads.iter().take(i + 1) {
        end += 8 + p.len();
    }
    end <= at
}

#[test]
fn oversized_length_prefix_is_refused_before_buffering() {
    let mut asm = FrameAssembler::new();
    asm.push(&STREAM_MAGIC);
    asm.push(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    asm.push(&0u32.to_le_bytes());
    assert_eq!(asm.next_frame(), Err(FrameError::Oversized(MAX_FRAME_PAYLOAD + 1)));
    // Sticky: the declared length is never waited for.
    asm.push(&[0u8; 64]);
    assert_eq!(asm.next_frame(), Err(FrameError::Oversized(MAX_FRAME_PAYLOAD + 1)));
}

#[test]
fn sniff_ambiguity_is_resolved_by_exact_magic_only() {
    // Every 8-byte prefix starting with 0xCC that is not the exact magic
    // is a BadMagic error, not a text fallback and not a hang.
    for wrong in [1usize, 2, 3, 4, 5, 6, 7] {
        let mut m = STREAM_MAGIC;
        m[wrong] ^= 0x20;
        let mut asm = FrameAssembler::new();
        asm.push(&m);
        assert_eq!(asm.next_frame(), Err(FrameError::BadMagic), "byte {wrong}");
    }
    // A correct magic arriving one byte at a time is fine.
    let mut asm = FrameAssembler::new();
    for b in STREAM_MAGIC {
        asm.push(&[b]);
        assert!(asm.next_frame().expect("no error").is_none());
    }
    asm.push(&frame(&binproto::encode_request(1, &binproto::BinRequest::Ping)));
    assert!(asm.next_frame().expect("frame").is_some());
}

// ---------------------------------------------------------------------------
// Live-server fuzz: the same damage over a real socket.
// ---------------------------------------------------------------------------

fn start() -> (Service, TcpServer, SocketAddr) {
    let svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        role: Role::Primary,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    (svc, server, addr)
}

/// Feeds `bytes` to a fresh connection and drains until the server
/// closes (or 2s of silence). The server must never hang or crash.
fn throw_garbage(addr: SocketAddr, bytes: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
    // The peer may close mid-write once it sees damage; both halves of
    // that race are fine.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
}

#[test]
fn live_server_survives_garbage_streams() {
    let (mut svc, mut server, addr) = start();
    let mut rng: u64 = 0x00D1_CE00;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as u8
    };
    for case in 0..40 {
        let mut bytes = Vec::new();
        match case % 5 {
            // Binary-looking garbage: sniff byte then noise.
            0 => {
                bytes.push(binproto::SNIFF_BYTE);
                for _ in 0..200 {
                    bytes.push(next());
                }
            }
            // Valid magic, then noise.
            1 => {
                bytes.extend_from_slice(&STREAM_MAGIC);
                for _ in 0..200 {
                    bytes.push(next());
                }
            }
            // Valid magic + one valid frame + corrupted tail.
            2 => {
                bytes.extend_from_slice(&STREAM_MAGIC);
                bytes.extend_from_slice(&frame(&binproto::encode_request(
                    1,
                    &binproto::BinRequest::Ping,
                )));
                let mut f = frame(&binproto::encode_request(2, &binproto::BinRequest::Ping));
                let at = 8 + (next() as usize % (f.len() - 8));
                f[at] ^= 1 << (next() % 8);
                bytes.extend_from_slice(&f);
            }
            // Oversized declared length.
            3 => {
                bytes.extend_from_slice(&STREAM_MAGIC);
                bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1 + next() as u32).to_le_bytes());
                bytes.extend_from_slice(&crc32(b"x").to_le_bytes());
            }
            // Text-looking garbage (first byte not the sniff byte).
            _ => {
                bytes.push(b'A' + (next() % 26));
                for _ in 0..100 {
                    bytes.push(next());
                }
                bytes.push(b'\n');
            }
        }
        throw_garbage(addr, &bytes);
    }
    // After forty hostile connections, a well-behaved one still works
    // on both doors.
    let mut bin = WireClient::binary(addr).expect("binary connect");
    bin.insert(1, 2).expect("insert");
    assert!(bin.query(1, 2).expect("query"));
    let mut text = WireClient::text(addr).expect("text connect");
    assert!(text.query(1, 2).expect("text query"));
    server.stop();
    svc.shutdown();
}
