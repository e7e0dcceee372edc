//! The text door on the event loop: pipelined lines, split `B` bodies,
//! the line cap's exact boundary, a blocked barrier that must not hold
//! up the shard's other connections, and parked barriers that must not
//! hold up a stop.

use cc_server::net::{serve_with, MAX_LINE_BYTES};
use cc_server::{NetConfig, Service, ServiceConfig, TcpServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start(n: usize, cfg: NetConfig) -> (Service, TcpServer, SocketAddr) {
    let svc =
        Service::start(ServiceConfig { n, ..ServiceConfig::default() }).expect("service starts");
    let server = serve_with(&svc, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    (svc, server, addr)
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn read_line(r: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("read");
    line.trim_end().to_string()
}

/// Writes `bytes` in one `write_all` from a helper thread (so a reply
/// backlog can never deadlock the test), then reads `want.len()` replies.
fn pipeline(addr: SocketAddr, bytes: Vec<u8>, want: &[String]) {
    let (mut r, w) = connect(addr);
    let writer = std::thread::spawn(move || (&w).write_all(&bytes).expect("write"));
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&read_line(&mut r), want, "reply {i}");
    }
    writer.join().expect("writer");
}

#[test]
fn lines_pipelined_in_one_write_answer_in_order() {
    let (mut svc, mut server, addr) = start(20_000, NetConfig::default());
    let want: Vec<String> = ["OK", "1", "OK 1", "PONG"].map(String::from).to_vec();
    pipeline(addr, b"I 1 2\nQ 1 2\nB 2\nQ 1 2\nI 2 3\nPING\n".to_vec(), &want);

    // A 10 000-line mix over a growing path from vertex 100: each `Q`
    // after its own `I` reads 1, the next vertex is not connected yet.
    let (mut text, mut want) = (String::new(), Vec::new());
    for j in 100..2_600u32 {
        text.push_str(&format!("I {j} {}\nQ {j} {}\nQ 100 {}\n", j + 1, j + 1, j + 1));
        want.extend(["OK", "1", "1"].map(String::from));
        if j % 5 == 0 {
            text.push_str("PING\n");
            want.push("PONG".into());
        } else if j % 7 == 0 {
            text.push_str(&format!("B 2\nQ 100 {}\nQ 100 {}\n", j + 1, j + 2));
            want.push("OK 10".into());
        } else {
            text.push_str(&format!("Q {} {}\n", j + 1, j + 2));
            want.push("0".into());
        }
    }
    assert!(text.lines().count() >= 10_000);
    pipeline(addr, text.into_bytes(), &want);
    server.stop();
    svc.shutdown();
}

#[test]
fn a_batch_body_split_at_any_byte_answers_alike() {
    let (mut svc, mut server, addr) = start(64, NetConfig::default());
    let (mut r, mut w) = connect(addr);
    let request = b"B 3\nI 1 2\nQ 1 2\nQ 1 3\n";
    for cut in 1..request.len() {
        w.write_all(&request[..cut]).expect("first write");
        w.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
        w.write_all(&request[cut..]).expect("second write");
        assert_eq!(read_line(&mut r), "OK 10", "body cut at byte {cut}");
    }
    server.stop();
    svc.shutdown();
}

#[test]
fn the_line_cap_admits_its_last_byte_and_refuses_the_next() {
    let (mut svc, mut server, addr) = start(64, NetConfig::default());
    let (mut r, mut w) = connect(addr);
    // MAX_LINE_BYTES - 1 bytes, then the `\n`: answered.
    let mut line = vec![b' '; MAX_LINE_BYTES - 1 - 4];
    line.extend_from_slice(b"PING\n");
    w.write_all(&line).expect("write");
    assert_eq!(read_line(&mut r), "PONG");
    // MAX_LINE_BYTES bytes with no `\n`: refused, then closed.
    w.write_all(&vec![b'Q'; MAX_LINE_BYTES]).expect("write");
    assert_eq!(read_line(&mut r), format!("ERR request line exceeds {MAX_LINE_BYTES} bytes"));
    let mut rest = String::new();
    match r.read_to_string(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "connection must close after an oversized line"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    server.stop();
    svc.shutdown();
}

#[test]
fn a_blocked_text_wait_does_not_delay_the_shards_other_connections() {
    let (mut svc, mut server, addr) = start(64, NetConfig { shards: 1, ..NetConfig::default() });
    let (mut r1, mut w1) = connect(addr);
    let (mut r2, mut w2) = connect(addr);
    // Epoch 5 never comes: the barrier holds for its whole timeout.
    w1.write_all(b"WAIT 5 3000\n").expect("write");
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    w2.write_all(b"PING\n").expect("write");
    assert_eq!(read_line(&mut r2), "PONG");
    let waited = t0.elapsed();
    assert!(waited < Duration::from_millis(1_500), "PING waited {waited:?} behind a WAIT");
    assert_eq!(read_line(&mut r1), "ERR wait for epoch 5 timed out at epoch 0");
    server.stop();
    svc.shutdown();
}

#[test]
fn stop_and_shutdown_with_200_parked_waits_return_promptly() {
    let (mut svc, mut server, addr) = start(64, NetConfig::default());
    let obs = svc.client().observability();
    let waits: Vec<(BufReader<TcpStream>, TcpStream)> = (0..200)
        .map(|_| {
            let (r, mut w) = connect(addr);
            w.write_all(b"WAIT 999 60000\n").expect("write");
            (r, w)
        })
        .collect();
    let t0 = Instant::now();
    while obs.metrics.waits_parked.get() < 200 {
        assert!(t0.elapsed() < Duration::from_secs(10), "WAITs did not park");
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    server.stop();
    svc.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "stop + shutdown took {took:?}");
    assert_eq!(obs.metrics.waits_parked.get(), 0, "closing connections drop their WAITs");
    drop(waits);
}
