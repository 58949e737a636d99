//! `tcp_pipelined`: one blocking client connection sends windows of
//! `PIPELINE` pipelined `ALLOC{d=2, Snapshot}` frames to an `Inline`-mode
//! `NetServer` on its own reactor thread (two threads in all), and sends
//! the next window once every reply of the last one is in: a closed loop
//! with up to `PIPELINE` requests in flight.
//!
//! The client speaks `balloc_net::wire` itself, so every request's round
//! trip is recorded exactly, and it checks conservation as it goes:
//! replies in order, one per `req_id`, every bin `< n`, and at the end
//! client completions == `ServerReport::served` == the final state's
//! balls, with the client's bin digest equal to the server's and to an
//! in-process `SnapshotService::call_block` replay of the same stream.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_net::wire::{encode, Frame, FrameDecoder};
use balloc_net::{NetConfig, NetServer, ServerMode, ServerReport, ShutdownHandle};
use balloc_serve::{
    DirectCluster, Request, ServeClock, SnapshotAllocator, SnapshotService, Staleness,
};

use crate::trace::{span, Tracer};
use crate::util::{schedstat, Windows};

pub const N: usize = 10_000;
pub const SHARDS: usize = 4;
pub const B: u64 = 64;
pub const PIPELINE: u64 = 64;
/// Untimed requests per set-up: page-faults the store and the snapshot
/// and runs the first refreshes.
pub const WARMUP: u64 = 4 * PIPELINE;
/// Set-ups per run; the last one serves the timed phase.
pub const SETUPS: usize = 9;
const CLIENT_ID: u32 = 0;
/// Length of one measurement window of the timed phase.
pub const WINDOW_NS: u64 = 250_000_000;

fn request() -> Request {
    Request::two_choice()
}

/// A running server: its stop handle, its thread, and the `schedstat` of
/// its reactor thread.
struct Server {
    shutdown: ShutdownHandle,
    join: JoinHandle<io::Result<ServerReport>>,
    schedstat: String,
    tid: i32,
}

/// The CPU the reactor and the client share during set-up; the timed
/// phase moves both to `crate::alternate_cpu` of each window. Sharing one
/// CPU makes every hand-off a local context switch: across CPUs the
/// wake-up cost swung run-to-run throughput by 25–45% on a 2-vCPU guest.
const CPU: usize = 0;

fn start_server(seed: u64) -> io::Result<(Server, std::net::SocketAddr)> {
    let cfg = NetConfig {
        n: N,
        shards: SHARDS,
        staleness: Staleness::Batch { b: B },
        seed,
        mode: ServerMode::Inline,
    };
    let server = NetServer::bind("127.0.0.1:0", cfg)?;
    let addr = server.local_addr()?;
    let shutdown = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    let join = std::thread::spawn(move || {
        // "<pid>/task/<tid>": lets the client read this thread's schedstat.
        let _ = tx.send(std::fs::read_link("/proc/thread-self"));
        crate::util::pin_to_cpus([CPU]);
        server.run()
    });
    let task = rx
        .recv()
        .map_err(|_| io::Error::other("reactor thread died before starting"))??;
    let tid = task
        .file_name()
        .and_then(|t| t.to_str())
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let server = Server {
        shutdown,
        join,
        schedstat: format!("/proc/{}/schedstat", task.display()),
        tid,
    };
    Ok((server, addr))
}

impl Server {
    fn stop(self) -> io::Result<ServerReport> {
        self.shutdown.shutdown();
        self.join
            .join()
            .map_err(|_| io::Error::other("reactor thread panicked"))?
    }
}

enum Stop {
    /// Send exactly this many more requests.
    Count(u64),
    /// Stop sending once the clock passes this many ns since `base`.
    Deadline(u64),
}

/// The benchmark-owned client connection and its conservation state.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    base: Instant,
    /// Send time (ns since `base`) of request `id`, at `id % PIPELINE`.
    sent_at: [u64; PIPELINE as usize],
    /// Next `req_id` to send (ids start at 1).
    next_id: u64,
    /// The `req_id` the next reply must carry.
    next_reply: u64,
    loads: Vec<u64>,
    max_load: u64,
    fnv: Fnv1a,
    balls: u64,
    errors: u64,
    reads: u64,
    frames: u64,
    gap_sum: f64,
    gap_samples: u64,
    server_tid: i32,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::with_capacity(64 * 1024),
            inbuf: vec![0; 64 * 1024],
            // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
            base: Instant::now(),
            sent_at: [0; PIPELINE as usize],
            next_id: 1,
            next_reply: 1,
            loads: vec![0; N],
            max_load: 0,
            fnv: Fnv1a::new(),
            balls: 0,
            errors: 0,
            reads: 0,
            frames: 0,
            gap_sum: 0.0,
            gap_samples: 0,
            server_tid: 0,
        };
        encode(&Frame::hello(CLIENT_ID), &mut client.out);
        client.stream.write_all(&client.out)?;
        client.out.clear();
        Ok(client)
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn in_flight(&self) -> u64 {
        self.next_id - self.next_reply
    }

    /// Sends the next window of up to `PIPELINE` requests (within
    /// `budget`).
    fn send(&mut self, budget: &mut u64, tracer: Option<&Tracer>) -> io::Result<()> {
        span(tracer, "client.send", self.next_id, || {
            self.send_window(budget)
        })
    }

    fn send_window(&mut self, budget: &mut u64) -> io::Result<()> {
        let first = self.next_id;
        while self.in_flight() < PIPELINE && *budget > 0 {
            encode(&Frame::alloc(self.next_id, &request()), &mut self.out);
            self.next_id += 1;
            *budget -= 1;
        }
        if !self.out.is_empty() {
            let t = self.now();
            for id in first..self.next_id {
                self.sent_at[(id % PIPELINE) as usize] = t;
            }
            self.stream.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Runs the closed loop until `stop`, then drains every outstanding
    /// reply. Latencies go to `latency` when given; gap samples are taken
    /// at every multiple of `n` balls while `latency` is recording.
    fn drive(
        &mut self,
        stop: Stop,
        mut latency: Option<&mut Windows>,
        tracer: Option<&Tracer>,
    ) -> io::Result<()> {
        let (mut budget, deadline) = match stop {
            Stop::Count(c) => (c, u64::MAX),
            Stop::Deadline(d) => (u64::MAX, d),
        };
        self.send(&mut budget, tracer)?;
        while self.in_flight() > 0 {
            let got = span(tracer, "client.read", self.reads, || {
                self.stream.read(&mut self.inbuf)
            })?;
            if got == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection with replies outstanding",
                ));
            }
            let now = self.now();
            self.reads += 1;
            let before = self.balls + self.errors;
            span(tracer, "client.decode", self.reads, || {
                self.take_replies(got, now, latency.as_deref_mut())
            })?;
            if let Some(w) = latency.as_mut() {
                let closed = w.windows.len();
                w.tick(now, self.balls + self.errors - before);
                if w.windows.len() > closed {
                    let cpu = crate::alternate_cpu(w.windows.len() as u64);
                    crate::util::pin_thread(self.server_tid, [cpu]);
                    crate::util::pin_to_cpus([cpu]);
                }
            }
            if now >= deadline {
                budget = 0;
            }
            if self.in_flight() == 0 {
                self.send(&mut budget, tracer)?;
            }
        }
        Ok(())
    }

    /// Decodes every complete reply of one read, checking and recording
    /// each.
    fn take_replies(
        &mut self,
        got: usize,
        now: u64,
        mut latency: Option<&mut Windows>,
    ) -> io::Result<()> {
        self.decoder.extend(&self.inbuf[..got]);
        while let Some(frame) = self
            .decoder
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            self.frames += 1;
            match frame {
                Frame::RespBin { req_id, bin, .. } => {
                    self.check_order(req_id)?;
                    if bin >= N as u64 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bin {bin} out of range for n = {N}"),
                        ));
                    }
                    if let Some(h) = latency.as_mut() {
                        h.record(now - self.sent_at[(req_id % PIPELINE) as usize]);
                    }
                    let load = &mut self.loads[bin as usize];
                    *load += 1;
                    self.max_load = self.max_load.max(*load);
                    self.fnv.write_u64(bin);
                    self.balls += 1;
                    if latency.is_some() && self.balls.is_multiple_of(N as u64) {
                        self.gap_sum += (self.max_load - self.balls / N as u64) as f64;
                        self.gap_samples += 1;
                    }
                }
                Frame::RespErr { req_id, .. } => {
                    self.check_order(req_id)?;
                    self.errors += 1;
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame from server: {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn check_order(&mut self, req_id: u64) -> io::Result<()> {
        if req_id != self.next_reply {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply for req_id {req_id}, expected {}", self.next_reply),
            ));
        }
        self.next_reply += 1;
        Ok(())
    }
}

/// Replays the connection's stream in process: the same decision state
/// and store the reactor builds for this client, dispatched through
/// `SnapshotService::call_block` in blocks of `PIPELINE`. Returns the bin
/// digest and the refresh count.
pub fn replay(seed: u64, requests: u64, tracer: Option<&Tracer>) -> (u64, u64) {
    let alloc = SnapshotAllocator::new(
        N,
        Staleness::Batch { b: B },
        point_seed(seed, u64::from(CLIENT_ID)),
    );
    let sink = crate::ladder::TracedSink {
        inner: DirectCluster::new(N, SHARDS),
        tracer,
    };
    let mut svc = SnapshotService::new(alloc, sink, ServeClock::new());
    let mut fnv = Fnv1a::new();
    let mut left = requests;
    let mut block = 0u64;
    while left > 0 {
        let count = left.min(PIPELINE);
        span(tracer, "serve.call_block", block, || {
            svc.call_block(&request(), count, &mut |r| {
                fnv.write_u64(r.expect("a direct store never rejects").bin as u64);
            });
        });
        left -= count;
        block += 1;
    }
    let refreshes = svc.refreshes();
    (fnv.finish(), refreshes)
}

/// What one session (set-ups plus timed phase) measured.
pub struct Session {
    pub setup_s: Vec<f64>,
    pub timed_requests: u64,
    pub wall_s: f64,
    pub latency: Windows,
    pub gap: f64,
    pub errors: u64,
    pub server_cpu_ns: u64,
    pub server_wait_ns: u64,
    pub client_cpu_ns: u64,
    pub reads: u64,
    pub frames: u64,
    pub failures: Vec<String>,
}

fn teardown(
    client: Client,
    server: Server,
    failures: &mut Vec<String>,
) -> io::Result<ServerReport> {
    let Client {
        stream,
        balls,
        fnv,
        loads,
        ..
    } = client;
    drop(stream);
    let report = server.stop()?;
    if report.served != balls || report.state.balls() != balls {
        failures.push(format!(
            "conservation: client completions {balls}, served {}, state balls {}",
            report.served,
            report.state.balls()
        ));
    }
    if report.digest != fnv.finish() {
        failures.push("client bin digest differs from the server's".into());
    }
    if report.state.loads() != loads.as_slice() {
        failures.push("client load vector differs from the server's final state".into());
    }
    Ok(report)
}

/// Runs `SETUPS` set-ups (the last one kept), then the closed loop for
/// `seconds`, then the conservation and replay checks.
pub fn session(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> io::Result<Session> {
    crate::util::pin_to_cpus([CPU]);
    let mut failures = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
        let start = Instant::now();
        let (server, addr) = start_server(seed)?;
        let mut client = Client::connect(addr)?;
        client.drive(Stop::Count(WARMUP), None, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((server, client));
        } else {
            teardown(client, server, &mut failures)?;
        }
    }
    let (server, mut client) = kept.expect("at least one set-up");
    client.server_tid = server.tid;

    let mut latency = Windows::new(WINDOW_NS);
    let (server0, client0) = (
        schedstat(&server.schedstat),
        schedstat("/proc/thread-self/schedstat"),
    );
    let (balls0, errors0, reads0, frames0) =
        (client.balls, client.errors, client.reads, client.frames);
    // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
    let start = Instant::now();
    let deadline = client.now() + (seconds * 1e9) as u64;
    client.drive(Stop::Deadline(deadline), Some(&mut latency), tracer)?;
    let wall_s = start.elapsed().as_secs_f64();
    let (server1, client1) = (
        schedstat(&server.schedstat),
        schedstat("/proc/thread-self/schedstat"),
    );

    let timed_requests = client.balls + client.errors - balls0 - errors0;
    let errors = client.errors - errors0;
    let (reads, frames) = (client.reads - reads0, client.frames - frames0);
    let gap = if client.gap_samples > 0 {
        client.gap_sum / client.gap_samples as f64
    } else {
        0.0
    };
    let total_requests = client.balls;
    let report = teardown(client, server, &mut failures)?;
    crate::util::unpin();
    let (digest, refreshes) = replay(seed, total_requests, tracer);
    if digest != report.digest {
        failures.push("in-process call_block replay digest differs from the server's".into());
    }
    if refreshes != report.refreshes {
        failures.push(format!(
            "replay refreshes {refreshes} != server refreshes {}",
            report.refreshes
        ));
    }
    if errors > 0 {
        failures.push(format!("{errors} requests answered with RESP_ERR"));
    }
    Ok(Session {
        setup_s,
        timed_requests,
        wall_s,
        latency,
        gap,
        errors,
        server_cpu_ns: server1.0 - server0.0,
        server_wait_ns: server1.1 - server0.1,
        client_cpu_ns: client1.0 - client0.0,
        reads,
        frames,
        failures,
    })
}
