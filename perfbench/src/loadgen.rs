//! The open-loop load generator.
//!
//! Independent users do not wait for each other, so requests go out on a
//! fixed schedule whatever the server does, and each is timed from its
//! intended send time: a stall delays every request due during it, and the
//! latencies show that. The server answers one connection's frames in
//! order, so frames are pipelined on each connection and replies are matched
//! first-in-first-out.
//!
//! A connection may instead keep a fixed number of requests in flight (a
//! closed loop with a bounded backlog), which measures how much the server
//! completes per second when it never waits for work.
//!
//! One thread drives every connection. It sleeps in `ppoll` until the next
//! send is due or a reply arrives: socket read timeouts tick in scheduler
//! jiffies (4-10 ms), far too coarse for sub-millisecond replies, and
//! polling loops would take CPU from the server on a small host.

use ftspan_net::protocol::{Request, Response, MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

/// Frame header: magic, version, tag, payload length (u64 LE at 12..20).
const HEADER_LEN: usize = 20;

/// One request of a connection's schedule.
pub struct Planned {
    /// Intended send time, from the start of the phase.
    pub at: Duration,
    pub frame: Vec<u8>,
    /// Queries the request carries (0 for a delta batch).
    pub queries: usize,
    /// Keep the decoded response for a later output check.
    pub keep: bool,
}

impl Planned {
    pub fn new(at: Duration, request: &Request, queries: usize, keep: bool) -> Self {
        let mut frame = Vec::new();
        request
            .write_to(&mut frame)
            .expect("encoding into memory cannot fail");
        Planned {
            at,
            frame,
            queries,
            keep,
        }
    }
}

/// How a connection paces its sends.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Each request at its planned time, whatever the server does.
    Scheduled,
    /// `depth` requests in flight until `until` (from the start), the next
    /// one sent as soon as a reply arrives; planned times are ignored and
    /// requests left unsent at `until` are dropped from the outcome.
    Window { depth: usize, until: Duration },
}

pub struct Outcome {
    /// When latency counts from, from the start of the phase: the intended
    /// send time on a scheduled connection, the actual one in a window.
    pub at: Duration,
    /// How late the request left, behind its intended send time.
    pub lag: Duration,
    /// When the reply arrived, from the start of the phase.
    pub arrived: Option<Duration>,
    /// From the intended send time to the reply; `None` when it failed.
    pub latency: Option<Duration>,
    pub response: Option<Response>,
    pub error: Option<String>,
}

/// Checks one decoded reply; an error fails the request.
pub type Verify = dyn Fn(&Response) -> Result<(), String>;

fn failed(error: String) -> Outcome {
    Outcome {
        at: Duration::ZERO,
        lag: Duration::ZERO,
        arrived: None,
        latency: None,
        response: None,
        error: Some(error),
    }
}

/// One connection's schedule and what has happened to it so far.
struct Conn<'p> {
    stream: TcpStream,
    plan: &'p [Planned],
    pace: Pace,
    next: usize,
    in_flight: VecDeque<usize>,
    buf: Vec<u8>,
    out: Vec<Outcome>,
    /// Set once the connection failed; its remaining requests keep their
    /// error.
    closed: bool,
}

impl Conn<'_> {
    fn done(&self, start: Instant) -> bool {
        let sending = match self.pace {
            Pace::Scheduled => self.next < self.plan.len(),
            Pace::Window { until, .. } => {
                self.next < self.plan.len() && Instant::now() < start + until
            }
        };
        self.closed || (!sending && self.in_flight.is_empty())
    }

    /// When this connection next wants to send, if it waits for a time
    /// rather than for a reply.
    fn wake(&self, start: Instant) -> Option<Instant> {
        if self.closed {
            return None;
        }
        match self.pace {
            Pace::Scheduled => self.plan.get(self.next).map(|p| start + p.at),
            Pace::Window { until, .. } => Some(start + until),
        }
    }

    fn fail_rest(&mut self, why: &str) {
        for &i in &self.in_flight {
            self.out[i].error = Some(why.to_string());
        }
        for o in &mut self.out[self.next..] {
            o.error = Some(why.to_string());
        }
        self.in_flight.clear();
        self.closed = true;
    }

    /// Sends every request that is due.
    fn send_due(&mut self, start: Instant) {
        while !self.closed && self.next < self.plan.len() {
            let now = Instant::now();
            let due = match self.pace {
                Pace::Scheduled => start + self.plan[self.next].at,
                Pace::Window { depth, until } => {
                    if self.in_flight.len() >= depth || now >= start + until {
                        return;
                    }
                    now
                }
            };
            if due > now {
                return;
            }
            if let Err(e) = write_all(&mut self.stream, &self.plan[self.next].frame) {
                return self.fail_rest(&format!("send: {e}"));
            }
            self.out[self.next].at = due.saturating_duration_since(start);
            self.out[self.next].lag = now - due;
            self.in_flight.push_back(self.next);
            self.next += 1;
        }
    }

    /// Reads what has arrived and settles every complete reply.
    fn receive(&mut self, start: Instant, chunk: &mut [u8], verify: &Verify) {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return self.fail_rest("server closed the connection"),
                Ok(n) => {
                    let arrived = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                    let mut consumed = 0;
                    while let Some(len) = complete_frame(&self.buf[consumed..]) {
                        let Some(i) = self.in_flight.pop_front() else {
                            return self.fail_rest("reply without a request");
                        };
                        let frame = &self.buf[consumed..consumed + len];
                        consumed += len;
                        let (at, lag) = (self.out[i].at, self.out[i].lag);
                        self.out[i] = settle(frame, &self.plan[i], start, arrived, verify, at, lag);
                    }
                    self.buf.drain(..consumed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.fail_rest(&format!("receive: {e}")),
            }
        }
    }
}

/// Reads a counter (the server's CPU time) while a phase runs.
pub struct Probe<'a> {
    pub every: Duration,
    pub read: &'a dyn Fn() -> Option<f64>,
}

/// A probe's readings: `(time from the start, value)`.
pub type Readings = Vec<(Duration, Option<f64>)>;

/// Runs every connection's plan, paced by `paces[i]`, from one common start
/// and returns each request's outcome, and the probe's readings: one at the
/// start, one every `probe.every`, one at the end. A reply that has not arrived `drain`
/// after the last send is a failure.
pub fn run(
    addr: SocketAddr,
    plans: &[Vec<Planned>],
    paces: &[Pace],
    drain: Duration,
    verify: &Verify,
    probe: &Probe,
) -> (Vec<Vec<Outcome>>, Readings) {
    let mut conns = Vec::new();
    for (plan, &pace) in plans.iter().zip(paces) {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                let why = format!("connect: {e}");
                let outcomes = plans
                    .iter()
                    .map(|p| p.iter().map(|_| failed(why.clone())).collect())
                    .collect();
                return (outcomes, Vec::new());
            }
        };
        stream.set_nodelay(true).ok();
        let nonblocking = stream.set_nonblocking(true);
        let mut conn = Conn {
            stream,
            plan,
            pace,
            next: 0,
            in_flight: VecDeque::new(),
            buf: Vec::new(),
            out: plan
                .iter()
                .map(|_| failed("no reply".to_string()))
                .collect(),
            closed: false,
        };
        if let Err(e) = nonblocking {
            conn.fail_rest(&format!("non-blocking socket: {e}"));
        }
        conns.push(conn);
    }
    let start = Instant::now() + Duration::from_millis(5);
    let last = plans
        .iter()
        .zip(paces)
        .filter_map(|(p, pace)| match pace {
            Pace::Scheduled => p.last().map(|p| p.at),
            Pace::Window { until, .. } => Some(*until),
        })
        .max()
        .unwrap_or_default();
    let deadline = start + last + drain;
    let mut chunk = vec![0u8; 1 << 16];
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // Waits for the start, so the first reading is taken there.
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut readings = vec![(Duration::ZERO, (probe.read)())];
    let mut next_probe = start + probe.every;
    while !conns.iter().all(|c| c.done(start)) {
        for c in &mut conns {
            c.send_due(start);
        }
        let now = Instant::now();
        if now >= next_probe {
            readings.push((now - start, (probe.read)()));
            next_probe += probe.every;
        }
        if now >= deadline {
            break; // unanswered requests keep their "no reply" error
        }
        let wake = conns
            .iter()
            .filter_map(|c| c.wake(start))
            .fold(next_probe.min(deadline), Instant::min);
        for (fd, c) in fds.iter_mut().zip(&conns) {
            // A negative descriptor leaves a failed connection out of the
            // poll.
            fd.fd = if c.closed { -1 } else { c.stream.as_raw_fd() };
            fd.revents = 0;
        }
        poll(&mut fds, wake.saturating_duration_since(now));
        for (fd, c) in fds.iter().zip(&mut conns) {
            if fd.revents != 0 && !c.closed {
                c.receive(start, &mut chunk, verify);
            }
        }
    }
    readings.push((start.elapsed(), (probe.read)()));
    let outcomes = conns
        .into_iter()
        .map(|mut c| {
            if let Pace::Window { .. } = c.pace {
                c.out.truncate(c.next);
            }
            c.out
        })
        .collect();
    (outcomes, readings)
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until one of `fds` is readable (or has an error or hang-up) or
/// `timeout` has passed, with the precision of the kernel's high-resolution
/// timers. An interruption or error returns early; the caller re-checks.
fn poll(fds: &mut [PollFd], timeout: Duration) {
    let timeout = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // entries laid out as `struct pollfd` (int, short, short), whose
    // descriptors stay open for the call because the streams outlive it;
    // `timeout` is a valid `struct timespec` (two longs); a null signal mask
    // leaves the mask unchanged. `ppoll` writes only the `revents` fields.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// `write_all` on a non-blocking socket: waits out a full send buffer.
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Length of the complete frame at the front of `buf`, if one has arrived.
fn complete_frame(buf: &[u8]) -> Option<usize> {
    let header = buf.get(..HEADER_LEN)?;
    let len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if len > MAX_FRAME_LEN {
        // Malformed: hand it to the decoder now so it fails the request
        // instead of waiting for bytes that never come.
        return Some(buf.len());
    }
    let need = HEADER_LEN + len as usize;
    (buf.len() >= need).then_some(need)
}

fn settle(
    frame: &[u8],
    planned: &Planned,
    start: Instant,
    arrived: Instant,
    verify: &Verify,
    at: Duration,
    lag: Duration,
) -> Outcome {
    let response = match Response::read_from(&mut &frame[..]) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                at,
                lag,
                ..failed(format!("decode: {e}"))
            }
        }
    };
    let verdict = match &response {
        Response::Batch(results) => match results.iter().find_map(|r| r.as_ref().err()) {
            Some(e) => Err(format!("typed error: {e}")),
            None => verify(&response),
        },
        Response::DeltasApplied(Ok(_)) => Ok(()),
        Response::DeltasApplied(Err(e)) => Err(format!("apply refused: {e}")),
        Response::Overloaded => Err("overloaded".to_string()),
        other => Err(format!("unexpected reply {other:?}")),
    };
    match verdict {
        Ok(()) => Outcome {
            at,
            lag,
            arrived: Some(arrived.saturating_duration_since(start)),
            latency: Some(arrived.saturating_duration_since(start + at)),
            response: planned.keep.then_some(response),
            error: None,
        },
        Err(e) => Outcome {
            at,
            lag,
            ..failed(e)
        },
    }
}
