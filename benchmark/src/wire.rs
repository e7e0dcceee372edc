//! The benchmark's own clients for the two doors, written against
//! PROTOCOL.md alone: a pipelined binary client (§2) and one-shot helpers
//! for the text door (§1). Only the CRC comes from the repo
//! (`cc_graph::io::binary`, the shared record codec).

use crate::drive::Pipe;
use crate::stream::{Req, ERRORED, MALFORMED};
use cc_graph::io::binary::crc32;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const STREAM_MAGIC: [u8; 8] = [0xCC, b'C', b'B', b'I', b'N', b'0', b'1', b'\n'];
const BATCH: u8 = 0x05;
/// Inserts per `BATCH` frame of a preload.
const PRELOAD_CHUNK: usize = 8192;
/// Timeout the benchmark hands to `QUIESCE`: inside the driver's own
/// [`crate::drive::REPLY_TIMEOUT`], so a stuck rebuild is an ERR reply.
const QUIESCE_MS: u64 = 4_000;

/// Blocks until `stream` has bytes to read or `wait` passes. A socket read
/// timeout will not do: the kernel rounds it up to whole scheduler ticks
/// (4–10 ms), which an open-loop schedule of 0.5 ms ticks cannot absorb;
/// `ppoll` sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout = Timespec { sec: wait.as_secs() as i64, nsec: i64::from(wait.subsec_nanos()) };
    // SAFETY: `ppoll` is the C library's (Linux, 64-bit: `nfds_t` is a
    // `u64` and `timespec` two `i64`s); it reads one `PollFd` and one
    // `Timespec`, both alive across the call, writes only `fd.revents`,
    // and a null signal mask leaves the mask alone.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 if io::Error::last_os_error().kind() == ErrorKind::Interrupted => Ok(false),
        -1 => Err(io::Error::last_os_error()),
        n => Ok(n > 0),
    }
}

fn verb(req: &Req) -> u8 {
    match req {
        Req::Insert(..) => 0x01,
        Req::Delete(..) => 0x02,
        Req::Query(..) => 0x03,
        Req::Ping => 0x08,
        Req::Quiesce => 0x09,
        Req::Topk(_) => 0x0B,
        Req::Size(_) => 0x0D,
    }
}

fn u64_at(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes an OK body into a [`crate::stream::Rec::answer`].
fn decode_ok(verb: u8, body: &[u8]) -> u64 {
    match verb {
        0x01 | 0x02 | 0x08 if body.is_empty() => 0,
        0x03 if body.len() == 1 && body[0] <= 1 => u64::from(body[0]),
        0x09 if body.len() == 8 => 0,
        0x0D if body.len() == 12 => u64_at(body, 0).unwrap_or(MALFORMED),
        0x0B => decode_topk(body).unwrap_or(MALFORMED),
        _ => MALFORMED,
    }
}

/// Size of the largest component in a `TOPK` body (0 when empty), or
/// `None` unless the entries are size-descending and singleton-free.
fn decode_topk(body: &[u8]) -> Option<u64> {
    let m = u32::from_le_bytes(body.get(17..21)?.try_into().ok()?) as usize;
    if body.len() != 21 + 12 * m {
        return None;
    }
    let sizes: Vec<u64> = (0..m).filter_map(|j| u64_at(body, 21 + 12 * j + 4)).collect();
    let ordered = sizes.windows(2).all(|w| w[0] >= w[1]) && sizes.iter().all(|&s| s >= 2);
    ordered.then(|| sizes.first().copied().unwrap_or(0))
}

/// One binary-door connection. The correlation id carries the request's
/// verb tag in its top byte and its stream index below, so a reply
/// decodes without a lookup.
pub struct BinConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Message of the first ERR reply seen, for the failure report.
    pub first_error: Option<String>,
}

impl BinConn {
    /// Connects, sets `TCP_NODELAY`, and queues the stream magic.
    pub fn connect(addr: SocketAddr) -> io::Result<BinConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(BinConn { stream, wbuf: STREAM_MAGIC.to_vec(), rbuf: Vec::new(), first_error: None })
    }

    fn frame(&mut self, payload_len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&[0; 4]);
        fill(&mut self.wbuf);
        debug_assert_eq!(self.wbuf.len(), at + 8 + payload_len);
        let crc = crc32(&self.wbuf[at + 8..]);
        self.wbuf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Inserts `edges` through `BATCH` frames, a few in flight at a time,
    /// and waits for every reply.
    pub fn preload(&mut self, edges: &[(u32, u32)]) -> io::Result<()> {
        let mut in_flight = 0usize;
        for (k, chunk) in edges.chunks(PRELOAD_CHUNK).enumerate() {
            self.frame(13 + 9 * chunk.len(), |w| {
                w.extend_from_slice(&(u64::from(BATCH) << 56 | k as u64).to_le_bytes());
                w.push(BATCH);
                w.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                for &(u, v) in chunk {
                    w.push(0);
                    w.extend_from_slice(&u.to_le_bytes());
                    w.extend_from_slice(&v.to_le_bytes());
                }
            });
            in_flight += 1;
            self.flush()?;
            self.await_replies(&mut in_flight, 3)?;
        }
        self.await_replies(&mut in_flight, 0)?;
        match self.first_error.take() {
            Some(e) => Err(io::Error::other(format!("preload refused: {e}"))),
            None => Ok(()),
        }
    }

    /// Sends one request and waits for its answer.
    pub fn call(&mut self, req: &Req) -> io::Result<()> {
        self.push(0, req);
        self.flush()?;
        self.await_replies(&mut 1, 0)?;
        match self.first_error.take() {
            Some(e) => Err(io::Error::other(format!("{req:?} refused: {e}"))),
            None => Ok(()),
        }
    }

    /// Reaps until at most `limit` requests are in flight.
    fn await_replies(&mut self, in_flight: &mut usize, limit: usize) -> io::Result<()> {
        let mut replies = Vec::new();
        while *in_flight > limit {
            replies.clear();
            self.reap(crate::drive::REPLY_TIMEOUT, &mut replies)?;
            if replies.is_empty() {
                return Err(io::Error::new(ErrorKind::TimedOut, "no reply from the server"));
            }
            *in_flight -= replies.len().min(*in_flight);
        }
        Ok(())
    }

    /// Parses every complete frame in `rbuf`.
    fn drain_frames(&mut self, out: &mut Vec<(usize, u64)>) -> io::Result<()> {
        let mut at = 0;
        while self.rbuf.len() - at >= 8 {
            let len = u32::from_le_bytes(self.rbuf[at..at + 4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(self.rbuf[at + 4..at + 8].try_into().expect("4"));
            if self.rbuf.len() - at - 8 < len {
                break;
            }
            let payload = &self.rbuf[at + 8..at + 8 + len];
            at += 8 + len;
            if len < 9 || crc32(payload) != crc {
                return Err(io::Error::new(ErrorKind::InvalidData, "bad reply frame"));
            }
            let corr = u64_at(payload, 0).expect("9 bytes");
            let (verb, index) = ((corr >> 56) as u8, (corr & ((1 << 56) - 1)) as usize);
            match payload[8] {
                0 if verb == BATCH => out.push((index, 0)),
                0 => out.push((index, decode_ok(verb, &payload[9..]))),
                1 => {
                    let msg = String::from_utf8_lossy(&payload[9..]).into_owned();
                    self.first_error.get_or_insert(msg);
                    out.push((index, ERRORED));
                }
                _ => {} // an event frame: no request of ours asks for one
            }
        }
        self.rbuf.drain(..at);
        Ok(())
    }
}

impl Pipe for BinConn {
    fn push(&mut self, index: usize, req: &Req) {
        let tag = verb(req);
        let corr = u64::from(tag) << 56 | index as u64;
        let args = match *req {
            Req::Insert(..) | Req::Delete(..) | Req::Query(..) | Req::Quiesce => 8,
            Req::Size(_) => 4,
            Req::Topk(_) => 1,
            Req::Ping => 0,
        };
        self.frame(9 + args, |w| {
            w.extend_from_slice(&corr.to_le_bytes());
            w.push(tag);
            match *req {
                Req::Insert(u, v) | Req::Delete(u, v) | Req::Query(u, v) => {
                    w.extend_from_slice(&u.to_le_bytes());
                    w.extend_from_slice(&v.to_le_bytes());
                }
                Req::Size(v) => w.extend_from_slice(&v.to_le_bytes()),
                Req::Topk(k) => w.push(k),
                Req::Quiesce => w.extend_from_slice(&QUIESCE_MS.to_le_bytes()),
                Req::Ping => {}
            }
        });
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    fn reap(&mut self, wait: Duration, out: &mut Vec<(usize, u64)>) -> io::Result<()> {
        let deadline = Instant::now() + wait;
        let before = out.len();
        let mut chunk = [0u8; 16 << 10];
        while out.len() == before {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if !wait_readable(&self.stream, left)? {
                continue;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                Ok(k) => {
                    self.rbuf.extend_from_slice(&chunk[..k]);
                    self.drain_frames(out)?;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Sends one text-door request and returns its reply line(s): a single
/// line, or for the dump verbs every line up to `# EOF`.
pub fn text_request(addr: SocketAddr, line: &str) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let multi = matches!(line.split(' ').next(), Some("METRICS" | "TRACE" | "SUBS"));
    let mut out = Vec::new();
    for reply in BufReader::new(&stream).lines() {
        let reply = reply?;
        if multi && reply == "# EOF" {
            return Ok(out);
        }
        out.push(reply);
        if !multi {
            return Ok(out);
        }
    }
    Err(io::Error::new(ErrorKind::UnexpectedEof, format!("no reply to {line}")))
}

/// The single reply line of a text request that must answer `want`-prefixed.
pub fn text_expect(addr: SocketAddr, line: &str, want: &str) -> io::Result<String> {
    let reply = text_request(addr, line)?.pop().unwrap_or_default();
    if reply.starts_with(want) {
        Ok(reply)
    } else {
        Err(io::Error::other(format!("{line} answered {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn reply_frame(corr: u64, status: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = corr.to_le_bytes().to_vec();
        payload.push(status);
        payload.extend_from_slice(body);
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&crc32(&payload).to_le_bytes());
        f.extend_from_slice(&payload);
        f
    }

    /// Frames are byte-pinned to PROTOCOL.md §2: magic, then
    /// `len crc corr verb args`.
    #[test]
    fn request_bytes_match_the_protocol() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = BinConn::connect(listener.local_addr().unwrap()).unwrap();
        conn.push(5, &Req::Query(1, 0x0203));
        conn.push(6, &Req::Topk(8));
        let mut want = STREAM_MAGIC.to_vec();
        let p1 = [&[5u8, 0, 0, 0, 0, 0, 0, 3][..], &[3, 1, 0, 0, 0, 3, 2, 0, 0]].concat();
        let p2 = [&[6u8, 0, 0, 0, 0, 0, 0, 0x0B][..], &[0x0B, 8]].concat();
        for p in [p1, p2] {
            want.extend_from_slice(&(p.len() as u32).to_le_bytes());
            want.extend_from_slice(&crc32(&p).to_le_bytes());
            want.extend_from_slice(&p);
        }
        assert_eq!(conn.wbuf, want);
    }

    #[test]
    fn replies_decode_by_the_verb_in_the_corr_id() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = BinConn::connect(listener.local_addr().unwrap()).unwrap();
        let corr = |verb: u64, index: u64| verb << 56 | index;
        let mut topk = vec![0u8; 17];
        topk.extend_from_slice(&2u32.to_le_bytes());
        for (root, size) in [(7u32, 9u64), (1, 4)] {
            topk.extend_from_slice(&root.to_le_bytes());
            topk.extend_from_slice(&size.to_le_bytes());
        }
        let mut unordered = topk.clone();
        unordered[25] = 1; // head size 9 -> 1
        let mut size = 12u64.to_le_bytes().to_vec();
        size.extend_from_slice(&3u32.to_le_bytes());
        conn.rbuf = [
            reply_frame(corr(3, 10), 0, &[1]),
            reply_frame(corr(1, 11), 0, &[]),
            reply_frame(corr(0x0D, 12), 0, &size),
            reply_frame(corr(0x0B, 13), 0, &topk),
            reply_frame(corr(0x0B, 14), 0, &unordered),
            reply_frame(corr(3, 15), 0, &[2]),
            reply_frame(corr(2, 16), 1, b"vertex 9 out of range (n = 4)"),
            reply_frame(corr(3, 17), 0, &[0])[..10].to_vec(), // torn: stays buffered
        ]
        .concat();
        let mut out = Vec::new();
        conn.drain_frames(&mut out).unwrap();
        let want =
            [(10, 1), (11, 0), (12, 12), (13, 9), (14, MALFORMED), (15, MALFORMED), (16, ERRORED)];
        assert_eq!(out, want);
        assert_eq!(conn.rbuf.len(), 10);
        assert_eq!(conn.first_error.as_deref(), Some("vertex 9 out of range (n = 4)"));
        // A flipped payload bit fails the CRC.
        let mut bad = reply_frame(corr(3, 1), 0, &[1]);
        bad[16] ^= 1;
        conn.rbuf = bad;
        assert!(conn.drain_frames(&mut out).is_err());
    }
}
