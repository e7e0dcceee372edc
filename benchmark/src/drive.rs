//! The two load drivers: a closed loop (each connection keeps a fixed
//! window of requests in flight) and an open loop (requests are due on a
//! fixed schedule whatever the server does). Both run over any [`Pipe`],
//! so the tests drive them against stubs.

use crate::stream::{Rec, Req, Stream};
use crate::trace::Tracer;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A request is failed once the server has been silent this long.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Nanoseconds since the run began. Starts at 1 so that 0 can mean
/// "never".
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock reading 1 now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since [`Clock::start`], plus 1.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64 + 1
    }
}

/// One pipelined connection to the system under test.
pub trait Pipe: Send {
    /// Queues request `index` for the next [`Pipe::flush`].
    fn push(&mut self, index: usize, req: &Req);
    /// Writes everything queued.
    fn flush(&mut self) -> io::Result<()>;
    /// Blocks until at least one reply arrives or `wait` passes; appends
    /// `(index, answer)` for every complete reply.
    fn reap(&mut self, wait: Duration, out: &mut Vec<(usize, u64)>) -> io::Result<()>;
}

/// Set by SIGINT/SIGTERM (see [`crate::daemon::trap_signals`]); the
/// drivers stop at the next segment or tick so the `Drop` guards run.
pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// `(start_ns, end_ns)` of every segment run, barrier to barrier.
pub type SegTimes = Vec<(u64, u64)>;

/// Outcome of a closed-loop run.
pub struct ClosedRun {
    /// One record per request of the stream.
    pub recs: Vec<Rec>,
    /// When each segment ran.
    pub seg_ns: SegTimes,
}

/// A traced run records a span for one request in this many of each
/// connection.
const SPAN_SAMPLE: usize = 64;

/// Runs `stream` closed-loop: connection `c` of `C` carries the requests
/// whose index is `c` modulo `C`, keeps up to `window` of them in flight,
/// and meets the others at a barrier after every segment. A connection
/// that fails or falls silent for [`REPLY_TIMEOUT`] leaves its remaining
/// requests unanswered and keeps the barriers. The run stops at the first
/// segment boundary past `give_up`. With a tracer (and the id of the span
/// to hang the run under), every segment is a span, and so is one request
/// in `SPAN_SAMPLE` (64) of every connection.
pub fn run_closed<P: Pipe>(
    pipes: &mut [P],
    stream: &Stream,
    window: usize,
    clock: Clock,
    give_up: Duration,
    tracer: Option<(&Tracer, u64)>,
) -> ClosedRun {
    let conns = pipes.len();
    let tracer = tracer.map(|(t, parent)| (t, parent, t.reserve(stream.seg_ends.len())));
    let barrier = Barrier::new(conns);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let locals: Vec<(Vec<Rec>, SegTimes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pipes
            .iter_mut()
            .enumerate()
            .map(|(c, pipe)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut recs = vec![Rec::UNSENT; stream.reqs.len().div_ceil(conns)];
                    let mut seg_ns = Vec::with_capacity(stream.seg_ends.len());
                    let mut replies = Vec::new();
                    let mut dead = false;
                    let mut seg_start = 0;
                    for (k, &seg_end) in stream.seg_ends.iter().enumerate() {
                        let t0 = clock.now_ns();
                        let mut next = seg_start + (c + conns - seg_start % conns) % conns;
                        let mut in_flight = 0usize;
                        while !dead && (next < seg_end || in_flight > 0) {
                            let now = clock.now_ns();
                            while in_flight < window && next < seg_end {
                                pipe.push(next, &stream.reqs[next]);
                                let rec = &mut recs[next / conns];
                                (rec.due_ns, rec.sent_ns) = (now, now);
                                next += conns;
                                in_flight += 1;
                            }
                            replies.clear();
                            let io =
                                pipe.flush().and_then(|()| pipe.reap(REPLY_TIMEOUT, &mut replies));
                            dead = io.is_err() || replies.is_empty();
                            let now = clock.now_ns();
                            for &(i, answer) in &replies {
                                let rec = &mut recs[i / conns];
                                (rec.done_ns, rec.answer) = (now, answer);
                                if let (Some((t, _, segs)), 0) = (tracer, i / conns % SPAN_SAMPLE) {
                                    t.record("request", rec.sent_ns, now, segs + k as u64);
                                }
                            }
                            in_flight -= replies.len().min(in_flight);
                        }
                        if c == 0
                            && (started.elapsed() > give_up || INTERRUPTED.load(Ordering::Relaxed))
                        {
                            stop.store(true, Ordering::Relaxed);
                        }
                        barrier.wait();
                        seg_ns.push((t0, clock.now_ns()));
                        seg_start = seg_end;
                        // Every thread reads the flag between the same two
                        // barriers, so all stop after the same segment.
                        let stopping = stop.load(Ordering::Relaxed);
                        barrier.wait();
                        if stopping {
                            break;
                        }
                    }
                    (recs, seg_ns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    let recs = (0..stream.reqs.len()).map(|i| locals[i % conns].0[i / conns]).collect();
    let seg_ns = locals.into_iter().next().map(|l| l.1).unwrap_or_default();
    if let Some((t, parent, segs)) = tracer {
        for (k, &(start, end)) in seg_ns.iter().enumerate() {
            t.record_as(segs + k as u64, "segment", start, end, parent);
        }
    }
    ClosedRun { recs, seg_ns }
}

/// Runs `reqs` open-loop at `rate` requests per second in all: every
/// `tick`, each connection's share of that tick's requests falls due at
/// once (bursty arrivals on a fixed schedule, which a two-core box can
/// generate without spinning). [`Rec::due_ns`] is the tick, not the send:
/// when the server or the generator stalls, later requests are sent late
/// and the wait counts in their latency.
pub fn run_paced<P: Pipe>(
    pipes: &mut [P],
    reqs: &[Req],
    rate: f64,
    tick: Duration,
    clock: Clock,
) -> Vec<Rec> {
    let conns = pipes.len();
    let tick_ns = tick.as_nanos() as u64;
    let per_tick = rate * tick.as_secs_f64() / conns as f64;
    let origin = clock.now_ns() + tick_ns;
    let locals: Vec<Vec<Rec>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pipes
            .iter_mut()
            .enumerate()
            .map(|(c, pipe)| {
                scope.spawn(move || {
                    let mine = (reqs.len() + conns - 1 - c) / conns;
                    let due = |k: usize| origin + (k as f64 / per_tick) as u64 * tick_ns;
                    let mut recs = vec![Rec::UNSENT; mine];
                    let mut replies = Vec::new();
                    let (mut next, mut in_flight) = (0usize, 0usize);
                    while next < mine || in_flight > 0 {
                        if INTERRUPTED.load(Ordering::Relaxed) {
                            break;
                        }
                        let now = clock.now_ns();
                        while next < mine && due(next) <= now {
                            pipe.push(c + next * conns, &reqs[c + next * conns]);
                            (recs[next].due_ns, recs[next].sent_ns) = (due(next), now);
                            next += 1;
                            in_flight += 1;
                        }
                        let wait = if next < mine {
                            Duration::from_nanos(due(next).saturating_sub(clock.now_ns()).max(1000))
                        } else {
                            REPLY_TIMEOUT
                        };
                        replies.clear();
                        if pipe.flush().and_then(|()| pipe.reap(wait, &mut replies)).is_err() {
                            break;
                        }
                        if replies.is_empty() && next == mine {
                            break;
                        }
                        let now = clock.now_ns();
                        for &(i, answer) in &replies {
                            (recs[i / conns].done_ns, recs[i / conns].answer) = (now, answer);
                        }
                        in_flight -= replies.len().min(in_flight);
                    }
                    recs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    (0..reqs.len()).map(|i| locals[i % conns][i / conns]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::UNANSWERED;

    /// Answers every request with its own index, one `reap` later; can
    /// stall once, and can drop the reply to one index.
    #[derive(Default)]
    struct Stub {
        queued: Vec<usize>,
        sent: Vec<usize>,
        stall_at_flush: Option<(usize, Duration)>,
        flushes: usize,
        drop_index: Option<usize>,
    }

    impl Pipe for Stub {
        fn push(&mut self, index: usize, _req: &Req) {
            self.queued.push(index);
        }
        fn flush(&mut self) -> io::Result<()> {
            if !self.queued.is_empty() {
                self.flushes += 1;
                if let Some((at, stall)) = self.stall_at_flush {
                    if self.flushes == at {
                        std::thread::sleep(stall);
                    }
                }
            }
            self.sent.append(&mut self.queued);
            Ok(())
        }
        fn reap(&mut self, wait: Duration, out: &mut Vec<(usize, u64)>) -> io::Result<()> {
            let drop_index = self.drop_index;
            out.extend(
                self.sent.drain(..).filter(|&i| Some(i) != drop_index).map(|i| (i, i as u64)),
            );
            if out.is_empty() {
                std::thread::sleep(wait.min(Duration::from_millis(20)));
            }
            Ok(())
        }
    }

    fn flat(count: usize) -> Stream {
        Stream { reqs: vec![Req::Ping; count], seg_ends: vec![count / 2, count] }
    }

    #[test]
    fn closed_loop_answers_everything_in_segments() {
        let mut pipes = [Stub::default(), Stub::default()];
        let stream = flat(1001);
        let run = run_closed(&mut pipes, &stream, 8, Clock::start(), Duration::from_secs(60), None);
        assert_eq!(run.seg_ns.len(), 2);
        for (i, rec) in run.recs.iter().enumerate() {
            assert_eq!(rec.answer, i as u64);
            assert!(rec.sent_ns > 0 && rec.done_ns >= rec.sent_ns);
        }
        // Nothing of segment 2 is sent before all of segment 1 is answered.
        let first_done = run.recs[..500].iter().map(|r| r.done_ns).max().unwrap();
        assert!(first_done <= run.seg_ns[0].1);
        assert!(run.recs[500..].iter().all(|r| r.sent_ns >= first_done));
    }

    #[test]
    fn closed_loop_gives_up_on_a_silent_pipe() {
        let mut pipes = [Stub { drop_index: Some(4), ..Stub::default() }];
        // REPLY_TIMEOUT is capped to 20 ms by the stub's reap.
        let run =
            run_closed(&mut pipes, &flat(10), 64, Clock::start(), Duration::from_secs(60), None);
        assert_eq!(run.recs[4].answer, UNANSWERED);
        assert_eq!(run.recs.iter().filter(|r| r.answer == UNANSWERED).count(), 6);
    }

    /// The open-loop promise: a 50 ms stall is charged to the requests
    /// that fell due during it, because latency runs from the due time.
    /// Measured from the send time the same requests would look instant.
    #[test]
    fn paced_latency_runs_from_due_time() {
        let stall = Duration::from_millis(50);
        let mut pipes = [Stub { stall_at_flush: Some((3, stall)), ..Stub::default() }];
        let reqs = vec![Req::Ping; 200];
        // 1 request per 1 ms tick: the stall covers ~50 due times.
        let recs = run_paced(&mut pipes, &reqs, 1000.0, Duration::from_millis(1), Clock::start());
        assert!(recs.iter().all(|r| r.answer != UNANSWERED));
        let from_due = recs.iter().map(|r| r.done_ns - r.due_ns).max().unwrap();
        let late = recs.iter().filter(|r| r.done_ns - r.due_ns > 20_000_000).count();
        assert!(from_due >= 45_000_000, "stall not charged: max {from_due} ns");
        assert!(late >= 20, "only {late} requests saw the stall");
        // From send time, only the request whose own flush stalled sees
        // it: everything that fell due meanwhile went out late, in one
        // burst, and was answered at once.
        let slow_from_send = recs.iter().filter(|r| r.done_ns - r.sent_ns > 20_000_000).count();
        assert!(slow_from_send <= 2, "{slow_from_send} slow from send time");
        // The schedule itself never slips: due times stay 1 ms apart.
        assert!(recs.windows(2).all(|w| w[1].due_ns - w[0].due_ns == 1_000_000));
    }
}
