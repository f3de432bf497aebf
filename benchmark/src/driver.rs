//! The socket drivers: a closed loop of pipelined bursts and an open loop
//! that sends on a fixed schedule whatever the server does. Either runs
//! on one pinned thread that polls every connection.
//!
//! Replies are matched to requests by order alone: the protocol has no
//! request ids, and the server answers one connection's requests in
//! arrival order, so each connection keeps a FIFO of what it expects.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::stream::{check, Expect, Model, Stream};
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::wire::Reader;

/// One client connection with its position in its stream and its model.
pub struct Conn {
    pub sock: TcpStream,
    pub reader: Reader,
    /// Next ring position to send.
    pub cursor: usize,
    pub model: Model,
    pub expects: VecDeque<Expect>,
    /// Requests sent since the connection opened (the span request id).
    pub sent: u64,
}

impl Conn {
    pub fn new(sock: TcpStream, model: Model) -> Conn {
        Conn {
            sock,
            reader: Reader::new(),
            cursor: 0,
            model,
            expects: VecDeque::with_capacity(1024),
            sent: 0,
        }
    }
}

/// Open `n` connections to `addr`, Nagle off, non-blocking: both drivers
/// poll.
pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        })
        .collect()
}

/// When a closed-loop phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// After this many requests per connection, or when `within` has
    /// passed, whichever comes first: a host far slower than the one the
    /// count was calibrated on must not run into the caller's time limit.
    Requests {
        per_conn: u64,
        within: Duration,
    },
}

/// What one time slice of a phase saw.
#[derive(Clone, Default)]
pub struct Slice {
    pub hist: Hist,
    pub reqs: u64,
    pub ops: u64,
}

#[derive(Default)]
pub struct PhaseResult {
    /// Slices by completion time; with [`Stop::After`] exactly the ones
    /// inside the window, with [`Stop::Requests`] as many as it took.
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    /// Start of the first connection to end of the last.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub reqs: u64,
    pub ops: u64,
    pub spans: Vec<Span>,
}

impl OpenResult {
    /// The whole phase as one histogram.
    pub fn latency(&self) -> Hist {
        Hist::merged(&self.slices)
    }
}

impl PhaseResult {
    /// The whole phase as one histogram.
    pub fn hist(&self) -> Hist {
        Hist::merged(self.slices.iter().map(|s| &s.hist))
    }

    /// Slices that lie wholly inside the phase.
    pub fn full_slices(&self) -> &[Slice] {
        let full = (self.elapsed_s / self.slice_s + 1e-9).floor() as usize;
        &self.slices[..full.min(self.slices.len())]
    }
}

/// Sampling of traced bursts: span every `every`-th burst of a lane.
pub struct TraceCfg {
    pub epoch: Instant,
    pub every: u64,
}

/// A burst one connection has in flight.
struct Burst {
    t0: Instant,
    len: usize,
    got: usize,
    ops: u64,
    traced: bool,
}

struct ClosedLane<'a> {
    conn: &'a mut Conn,
    stream: &'a Stream,
    /// Requests this connection may still send.
    remaining: u64,
    burst: Option<Burst>,
    reply_times: Vec<Instant>,
    dead: bool,
}

/// `write_all` on a non-blocking socket. A burst is under a kilobyte, so
/// the socket buffer taking only part of it is rare; then wait it out.
fn write_burst(mut sock: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match sock.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run a closed-loop phase from one pinned thread: each connection on its
/// own writes a burst of `depth` pre-encoded requests in one `write`,
/// and writes the next as soon as the last reply of that burst is in. One
/// thread polls all connections, so no client-side scheduling sits
/// between a reply's arrival and the next burst.
pub fn closed_phase(
    conns: &mut [Conn],
    streams: &[Stream],
    depth: usize,
    stop: Stop,
    slice: Duration,
    trace: Option<&TraceCfg>,
) -> PhaseResult {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            sys::pin_thread(sys::generator_core(0));
            closed_loop(conns, streams, depth, stop, slice, trace)
        })
        .join()
        .expect("generator thread panicked")
    })
}

fn closed_loop(
    conns: &mut [Conn],
    streams: &[Stream],
    depth: usize,
    stop: Stop,
    slice: Duration,
    trace: Option<&TraceCfg>,
) -> PhaseResult {
    let mut tracer = trace.map(|t| Tracer::new(t.epoch, 1));
    let (per_conn, window) = match stop {
        Stop::After(d) => (u64::MAX, d),
        Stop::Requests { per_conn, within } => (per_conn, within),
    };
    let mut lanes: Vec<ClosedLane<'_>> = conns
        .iter_mut()
        .zip(streams)
        .map(|(conn, stream)| ClosedLane {
            dead: false,
            conn,
            stream,
            remaining: per_conn,
            burst: None,
            reply_times: Vec::with_capacity(depth),
        })
        .collect();
    let mut res = PhaseResult {
        slice_s: slice.as_secs_f64(),
        ..PhaseResult::default()
    };
    let spin_politely = sys::nproc() == 1;
    let mut bursts = 0u64;
    let started = Instant::now();
    let deadline = started + window;
    let mut ended = started;
    loop {
        let (mut in_flight, mut progressed) = (false, false);
        for lane in lanes.iter_mut().filter(|l| !l.dead) {
            let (conn, stream) = (&mut *lane.conn, lane.stream);
            if lane.burst.is_none() && lane.remaining > 0 && Instant::now() < deadline {
                let len = depth
                    .min(stream.len() - conn.cursor)
                    .min(lane.remaining.min(usize::MAX as u64) as usize);
                let (a, b) = (conn.cursor, conn.cursor + len);
                let mut ops = 0u64;
                for pos in a..b {
                    conn.model.send(stream, pos, &mut conn.expects);
                    ops += stream.index_ops(pos);
                }
                conn.cursor = b % stream.len();
                lane.remaining -= len as u64;
                res.attempted += len as u64;
                let traced = trace.is_some_and(|t| bursts.is_multiple_of(t.every));
                bursts += 1;
                lane.reply_times.clear();
                let t0 = Instant::now();
                let bytes = &stream.bytes[stream.offsets[a] as usize..stream.offsets[b] as usize];
                if write_burst(&conn.sock, bytes).is_err() {
                    res.failed += len as u64;
                    conn.expects.clear();
                    lane.dead = true;
                    continue;
                }
                lane.burst = Some(Burst {
                    t0,
                    len,
                    got: 0,
                    ops,
                    traced,
                });
            }
            let Some(burst) = lane.burst.as_mut() else {
                continue;
            };
            in_flight = true;
            match conn.reader.fill(&mut conn.sock) {
                Ok(n) if n > 0 => progressed = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                _ => {
                    // Connection lost: everything still owed has failed.
                    res.failed += (burst.len - burst.got) as u64;
                    conn.expects.clear();
                    lane.dead = true;
                    continue;
                }
            }
            while burst.got < burst.len {
                let Some(reply) = conn.reader.next_reply() else {
                    break;
                };
                res.failed += u64::from(!check(&reply, &mut conn.expects));
                if burst.traced {
                    lane.reply_times.push(Instant::now());
                }
                burst.got += 1;
            }
            if burst.got < burst.len {
                continue;
            }
            let t1 = Instant::now();
            ended = t1;
            if t1 < deadline {
                let i = ((t1 - started).as_nanos() / slice.as_nanos()) as usize;
                if res.slices.len() <= i {
                    res.slices.resize_with(i + 1, Slice::default);
                }
                let s = &mut res.slices[i];
                s.hist
                    .record_n((t1 - burst.t0).as_nanos() as u64, burst.len as u64);
                s.reqs += burst.len as u64;
                s.ops += burst.ops;
            }
            if let (true, Some(tr)) = (burst.traced, tracer.as_mut()) {
                let id = tr.reserve();
                for (i, &t) in lane.reply_times.iter().enumerate() {
                    tr.push("request", id, conn.sent + i as u64 + 1, burst.t0, t);
                }
                tr.push_reserved(id, "burst", 0, burst.t0, t1);
            }
            conn.sent += burst.len as u64;
            lane.burst = None;
        }
        let may_start =
            Instant::now() < deadline && lanes.iter().any(|l| !l.dead && l.remaining > 0);
        if !in_flight && !may_start {
            break;
        }
        if !progressed && spin_politely {
            std::thread::yield_now();
        }
    }
    res.elapsed_s = match stop {
        Stop::After(d) => d.as_secs_f64(),
        Stop::Requests { .. } => (ended - started).as_secs_f64(),
    };
    res.reqs = res.slices.iter().map(|s| s.reqs).sum();
    res.ops = res.slices.iter().map(|s| s.ops).sum();
    if let Some(tr) = tracer {
        res.spans = tr.spans;
    }
    res
}

/// What one open-loop phase saw.
/// Time slices of an open-loop phase.
pub const OPEN_SLICES: usize = 4;

#[derive(Default)]
pub struct OpenResult {
    /// Completion − due time of every completed request, in
    /// [`OPEN_SLICES`] histograms by due time. A growing backlog shows
    /// in the last one.
    pub slices: Vec<Hist>,
    /// Send − due time: how late the generator itself ran.
    pub gen_late: Hist,
    /// Most requests ever due but not yet answered.
    pub backlog_max: u64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
}

struct Lane<'a> {
    conn: &'a mut Conn,
    stream: &'a Stream,
    /// Ring byte the phase started at. Byte counts below are linear from
    /// there; `(base + n) % ring bytes` is where byte `n` lives.
    base: usize,
    /// Bytes of admitted requests / bytes the socket has taken.
    admitted: u64,
    written: u64,
    /// `(due, span parent or 0)` of requests admitted and not answered.
    inflight: VecDeque<(u64, u64)>,
    /// `(due, linear end byte)` of admitted requests not fully written;
    /// always the tail of `inflight`.
    unsent: VecDeque<(u64, u64)>,
    dead: bool,
}

/// How long after the last arrival the driver waits for stragglers
/// before counting them as failed.
const DRAIN: Duration = Duration::from_secs(2);

/// Send the requests of `schedule` (nanoseconds from phase start, see
/// [`crate::rng::poisson_schedule`]) round-robin over `conns` from one
/// pinned thread, never waiting for the server: a request goes out when
/// it is due, and its latency runs from that due time.
pub fn open_phase(
    conns: &mut [Conn],
    streams: &[Stream],
    schedule: &[u64],
    phase_ns: u64,
    trace: Option<&TraceCfg>,
) -> OpenResult {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            sys::pin_thread(sys::generator_core(0));
            open_loop(conns, streams, schedule, phase_ns, trace)
        })
        .join()
        .expect("generator thread panicked")
    })
}

fn open_loop(
    conns: &mut [Conn],
    streams: &[Stream],
    schedule: &[u64],
    phase_ns: u64,
    trace: Option<&TraceCfg>,
) -> OpenResult {
    let mut tracer = trace.map(|t| Tracer::new(t.epoch, 16));
    let mut lanes: Vec<Lane<'_>> = conns
        .iter_mut()
        .zip(streams)
        .map(|(conn, stream)| Lane {
            base: stream.offsets[conn.cursor] as usize,
            conn,
            stream,
            admitted: 0,
            written: 0,
            inflight: VecDeque::new(),
            unsent: VecDeque::new(),
            dead: false,
        })
        .collect();
    let nlanes = lanes.len();
    let mut res = OpenResult::default();
    let spin_politely = sys::nproc() == 1;
    res.slices = vec![Hist::default(); OPEN_SLICES];
    let start = Instant::now();
    let mut next = 0usize;
    let mut writes = 0u64;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        let mut progressed = false;

        // Admit everything that is due.
        while next < schedule.len() && schedule[next] <= now {
            let lane = &mut lanes[next % nlanes];
            let due = schedule[next];
            next += 1;
            res.attempted += 1;
            if lane.dead {
                res.failed += 1;
                continue;
            }
            let pos = lane.conn.cursor;
            lane.conn
                .model
                .send(lane.stream, pos, &mut lane.conn.expects);
            lane.admitted += u64::from(lane.stream.offsets[pos + 1] - lane.stream.offsets[pos]);
            lane.conn.cursor = (pos + 1) % lane.stream.len();
            lane.conn.sent += 1;
            lane.inflight.push_back((due, 0));
            lane.unsent.push_back((due, lane.admitted));
        }
        let backlog: usize = lanes.iter().map(|l| l.inflight.len()).sum();
        res.backlog_max = res.backlog_max.max(backlog as u64);

        for lane in lanes.iter_mut().filter(|l| !l.dead) {
            // Write what is admitted and unwritten, as far as the socket
            // takes it and up to the end of the ring.
            if lane.written < lane.admitted {
                let bytes = &lane.stream.bytes;
                let at = (lane.base + lane.written as usize) % bytes.len();
                let want = ((lane.admitted - lane.written) as usize).min(bytes.len() - at);
                let t_write = Instant::now();
                match lane.conn.sock.write(&bytes[at..at + want]) {
                    Ok(0) => lane.dead = true,
                    Ok(n) => {
                        progressed = true;
                        lane.written += n as u64;
                        let wrote_at = start.elapsed().as_nanos() as u64;
                        // Requests whose last byte just left.
                        let first = lane.inflight.len() - lane.unsent.len();
                        let mut carried = 0usize;
                        while let Some(&(due, end)) = lane.unsent.front() {
                            if end > lane.written {
                                break;
                            }
                            res.gen_late.record(wrote_at.saturating_sub(due));
                            lane.unsent.pop_front();
                            carried += 1;
                        }
                        writes += 1;
                        if let (Some(tr), Some(cfg)) = (tracer.as_mut(), trace) {
                            if carried > 0 && writes.is_multiple_of(cfg.every) {
                                let burst = tr.reserve();
                                tr.push_reserved(burst, "burst", 0, t_write, Instant::now());
                                for slot in lane.inflight.range_mut(first..first + carried) {
                                    slot.1 = burst;
                                }
                            }
                        }
                    }
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(_) => lane.dead = true,
                }
            }

            // Read what has arrived.
            match lane.conn.reader.fill(&mut lane.conn.sock) {
                Ok(0) => lane.dead = true,
                Ok(_) => {
                    progressed = true;
                    let done = start.elapsed().as_nanos() as u64;
                    while let Some(reply) = lane.conn.reader.next_reply() {
                        let ok = check(&reply, &mut lane.conn.expects);
                        let Some((due, parent)) = lane.inflight.pop_front() else {
                            res.failed += 1;
                            continue;
                        };
                        res.completed += 1;
                        res.failed += u64::from(!ok);
                        let lat = done.saturating_sub(due);
                        let slice = (due as u128 * OPEN_SLICES as u128 / phase_ns as u128) as usize;
                        res.slices[slice.min(OPEN_SLICES - 1)].record(lat);
                        if let (true, Some(tr)) = (parent != 0, tracer.as_mut()) {
                            let req = lane.conn.sent - lane.inflight.len() as u64;
                            tr.push(
                                "request",
                                parent,
                                req,
                                start + Duration::from_nanos(due),
                                start + Duration::from_nanos(done),
                            );
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock) => {}
                Err(_) => lane.dead = true,
            }
            if lane.dead {
                // Everything still owed on a lost connection has failed.
                res.failed += lane.inflight.len() as u64;
                lane.inflight.clear();
                lane.unsent.clear();
                lane.conn.expects.clear();
            }
        }

        let idle = lanes.iter().all(|l| l.inflight.is_empty());
        if next == schedule.len() && idle {
            break;
        }
        if now > phase_ns + DRAIN.as_nanos() as u64 {
            for lane in &mut lanes {
                res.failed += lane.inflight.len() as u64;
                lane.inflight.clear();
                lane.conn.expects.clear();
                lane.dead = true;
            }
            break;
        }
        if !progressed && spin_politely {
            std::thread::yield_now();
        }
    }
    res.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(tr) = tracer {
        res.spans = tr.spans;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Sampler};
    use crate::stream::Mix;
    use optiql_server::{FrameDecoder, Request, Response};
    use std::io::Read;
    use std::net::TcpListener;

    const KEYS: u64 = 1_000;

    #[derive(Clone, Copy, Default)]
    struct Fake {
        /// Stop reading for this long once this many requests were served.
        stall: Option<(u64, Duration)>,
        /// Answer this request and the next in the wrong order.
        swap_at: Option<u64>,
    }

    /// A server that answers every GET with the preload value, one thread
    /// per connection, until its clients hang up.
    fn fake_server(conns: usize, fake: Fake) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let workers: Vec<_> = (0..conns)
                .map(|_| {
                    let (mut sock, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        let mut dec = FrameDecoder::new();
                        let mut buf = [0u8; 16 * 1024];
                        let (mut served, mut held) = (0u64, None);
                        loop {
                            let n = match sock.read(&mut buf) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => n,
                            };
                            dec.feed(&buf[..n]);
                            let mut out = Vec::new();
                            while let Ok(Some(Request::Get { key })) = dec.next_request() {
                                let mut reply = Vec::new();
                                Response::Value(Some(key + 1)).encode(&mut reply);
                                if fake.swap_at == Some(served) {
                                    held = Some(reply);
                                } else {
                                    out.extend_from_slice(&reply);
                                    out.extend(held.take().unwrap_or_default());
                                }
                                served += 1;
                                if fake.stall.is_some_and(|(after, _)| after == served) {
                                    sock.write_all(&out).unwrap();
                                    out.clear();
                                    std::thread::sleep(fake.stall.unwrap().1);
                                }
                            }
                            if sock.write_all(&out).is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            workers.into_iter().for_each(|w| w.join().unwrap());
        });
        (addr, join)
    }

    fn get_streams(n: usize, len: usize) -> Vec<Stream> {
        let sampler = Sampler::uniform(KEYS);
        (0..n)
            .map(|c| {
                Stream::generate(
                    Rng::new(21, c as u64),
                    len,
                    &sampler,
                    KEYS,
                    Mix::GET_ONLY,
                    c,
                    n,
                )
            })
            .collect()
    }

    fn open(addr: SocketAddr, n: usize) -> Vec<Conn> {
        connect(addr, n)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, s)| Conn::new(s, Model::new(i, n, KEYS, KEYS, false)))
            .collect()
    }

    #[test]
    fn pipelined_replies_match_requests_in_fifo_order() {
        let streams = get_streams(2, 1_000);
        let slice = Duration::from_millis(50);
        let (addr, server) = fake_server(2, Fake::default());
        let mut conns = open(addr, 2);
        // 100 bursts of 32 per connection: the ring wraps three times.
        let r = closed_phase(
            &mut conns,
            &streams,
            32,
            Stop::Requests {
                per_conn: 3_200,
                within: Duration::from_secs(60),
            },
            slice,
            None,
        );
        assert_eq!((r.attempted, r.failed, r.reqs), (6_400, 0, 6_400));
        assert_eq!(r.hist().count(), 6_400);
        assert!(conns
            .iter()
            .all(|c| c.expects.is_empty() && c.sent == 3_200));
        drop(conns);
        server.join().unwrap();

        // Two replies in the wrong order are two wrong values: order is
        // the only thing that ties a reply to its request.
        let (addr, server) = fake_server(
            1,
            Fake {
                swap_at: Some(40),
                ..Fake::default()
            },
        );
        let mut conns = open(addr, 1);
        assert_ne!(streams[0].ops[40].key, streams[0].ops[41].key);
        let r = closed_phase(
            &mut conns,
            &streams[..1],
            32,
            Stop::Requests {
                per_conn: 320,
                within: Duration::from_secs(60),
            },
            slice,
            None,
        );
        assert_eq!((r.attempted, r.failed), (320, 2));
        drop(conns);
        server.join().unwrap();
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // One request every 100 µs for 0.4 s; the server stops reading
        // for 100 ms after its 1000th reply (about 100 ms in).
        let schedule: Vec<u64> = (0..4_000u64).map(|i| i * 100_000).collect();
        let stall = Duration::from_millis(100);
        let streams = get_streams(1, 4_000);
        let (addr, server) = fake_server(
            1,
            Fake {
                stall: Some((1_000, stall)),
                ..Fake::default()
            },
        );
        let mut conns = open(addr, 1);
        let cfg = TraceCfg {
            epoch: Instant::now(),
            every: 1,
        };
        let r = open_phase(&mut conns, &streams, &schedule, 400_000_000, Some(&cfg));
        drop(conns);
        server.join().unwrap();
        assert_eq!((r.attempted, r.completed, r.failed), (4_000, 4_000, 0));

        // The generator never waited for the server: requests due during
        // the stall went out on time.
        assert!(r.gen_late.quantile_us(0.5) < 10_000.0, "generator ran late");
        // So requests *after* the one that hit the stall carry the wait.
        // Request 1500 was due 50 ms before the stall could end.
        let latency_of = |req: u64| {
            let s = r
                .spans
                .iter()
                .find(|s| s.name == "request" && s.req == req)
                .unwrap();
            s.end_ns - s.start_ns
        };
        for req in [1_100, 1_300, 1_500] {
            assert!(
                latency_of(req) >= 40_000_000,
                "request {req}: {} ns",
                latency_of(req)
            );
        }
        assert!(latency_of(500) < 40_000_000, "before the stall");
        assert!(
            r.latency().quantile_us(0.99) >= 80_000.0,
            "p99 {}",
            r.latency().quantile_us(0.99)
        );
        assert!(r.backlog_max >= 500, "backlog {}", r.backlog_max);
        // Span starts are due times, not send times.
        let first = r
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.start_ns)
            .min()
            .unwrap();
        let s1500 = r
            .spans
            .iter()
            .find(|s| s.name == "request" && s.req == 1_501)
            .unwrap();
        assert_eq!(s1500.start_ns - first, 150_000_000);
    }
}
