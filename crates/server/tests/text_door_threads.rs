//! Text connections cost file descriptors, not threads. This lives alone
//! in its test binary: it counts the process's threads, so no other test
//! may start or stop any meanwhile.

#![cfg(target_os = "linux")]

use cc_server::{serve, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

fn ping(stream: &TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    (&*stream).write_all(b"PING\n").expect("write");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    assert_eq!(line, "PONG\n");
}

#[test]
fn idle_text_connections_leave_the_thread_count_unchanged() {
    let mut svc =
        Service::start(ServiceConfig { n: 64, ..ServiceConfig::default() }).expect("start");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let first = TcpStream::connect(server.local_addr()).expect("connect");
    ping(&first);
    let before = threads();
    let idle: Vec<TcpStream> = (0..200)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr()).expect("connect");
            ping(&stream);
            stream
        })
        .collect();
    assert_eq!(threads(), before, "200 idle text connections changed the thread count");
    drop(idle);
    server.stop();
    svc.shutdown();
}
