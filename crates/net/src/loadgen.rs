//! The closed-loop multi-connection load generator.
//!
//! `connections × pipeline` requests stay in flight: each connection
//! opens with `HELLO`, primes a pipeline-deep window of `ALLOC` frames,
//! then sends one new request per reply until its quota is spent. The
//! generator is itself an epoll reactor (same edge-triggered discipline
//! as the server), so one thread can drive many connections without
//! per-connection threads distorting the measurement.
//!
//! Determinism: connection `w`'s quota is
//! [`worker_share`]`(requests, connections, w)` — the in-process engines'
//! round-robin split — and the initial ramp issues its frames in
//! [`ArrivalSchedule`] order, so the request interleaving where the
//! closed loop has freedom is a pure function of the seed. Per-request
//! latencies land in the serve layer's 64-bucket [`LatencyHistogram`];
//! quantile reads round **up** to their bucket bound, so reported
//! percentiles are conservative.
//!
//! Even the dial phase is nonblocking: sockets are born `SOCK_NONBLOCK`
//! via [`epoll::connect_nonblocking`], every SYN goes out back-to-back,
//! and the handshakes complete through the same epoll instance that
//! later drives the closed loop — no thread in this crate ever blocks in
//! a socket call (lint L007 holds without exemptions here).

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use balloc_core::rng::Fnv1a;
use balloc_serve::{worker_share, LatencyHistogram, Request};
use balloc_sim::ArrivalSchedule;
use epoll::{Epoll, Events, Interest, Token};

use crate::conn::FramedConn;
use crate::wire::Frame;

/// Configuration of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent connections (replay mode: must equal the server's
    /// client count; client ids are `0..connections`).
    pub connections: usize,
    /// Requests kept in flight per connection.
    pub pipeline: usize,
    /// Total requests across all connections.
    pub requests: u64,
    /// The request template every connection issues.
    pub request: Request,
    /// Seed of the arrival interleaving (not of any allocation decision —
    /// those are the server's, seeded per client id).
    pub seed: u64,
    /// Collect every returned bin and reconstruct the global round-robin
    /// decision digest (replay verification). Costs one `Vec<u64>` per
    /// connection.
    pub collect_bins: bool,
}

impl LoadGenConfig {
    fn validate(&self) {
        assert!(self.connections > 0, "need at least one connection");
        assert!(self.pipeline > 0, "pipeline depth must be positive");
        assert!(
            u32::try_from(self.connections).is_ok(),
            "client ids are u32 on the wire"
        );
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadGenReport {
    /// Requests sent.
    pub sent: u64,
    /// `RESP_BIN` replies received.
    pub completed: u64,
    /// `RESP_ERR` replies received.
    pub errors: u64,
    /// Wall-clock time from first byte out to last reply in.
    pub elapsed: Duration,
    /// Replies per second over the run.
    pub throughput_rps: f64,
    /// Median latency, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// The full latency histogram (microsecond samples).
    pub histogram: LatencyHistogram,
    /// FNV-1a digest over returned bins in global round-robin order
    /// (`Some` iff [`LoadGenConfig::collect_bins`] and every request
    /// succeeded) — comparable against
    /// [`balloc_serve::run_replay`]'s digest and the server report's.
    pub digest: Option<u64>,
}

struct GenConn {
    framed: FramedConn,
    quota_left: u64,
    /// Send timestamps of in-flight requests, reply order.
    in_flight: VecDeque<Instant>,
    /// Next request sequence number (also the low bits of `req_id`).
    seq: u64,
    /// Replies received.
    replies: u64,
    bins: Vec<u64>,
}

impl GenConn {
    fn send_one(&mut self, req: &Request, now: Instant) {
        // req_ids start at 1 so 0 stays reserved for unattributable
        // protocol errors.
        self.seq += 1;
        self.framed.queue(&Frame::alloc(self.seq, req));
        self.in_flight.push_back(now);
    }
}

/// Runs the closed loop against a serving [`NetServer`](crate::NetServer)
/// and reports throughput, latency percentiles, and (optionally) the
/// reconstructed decision digest.
///
/// # Errors
///
/// Fails if a connection cannot be established, dies before its quota is
/// answered, or the run stalls (no reply for ~10 s).
///
/// # Panics
///
/// Panics on a zero connection count or pipeline depth, and on reply
/// conservation violations (a reply for a request never sent).
pub fn run_loadgen(cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
    cfg.validate();
    let quotas: Vec<u64> = (0..cfg.connections)
        .map(|w| worker_share(cfg.requests, cfg.connections, w))
        .collect();
    let epoll = Epoll::new()?;
    let mut conns = Vec::with_capacity(cfg.connections);
    let mut connected = vec![false; cfg.connections];
    let mut awaiting = 0usize;
    for (w, &quota) in quotas.iter().enumerate() {
        // Nonblocking dial: the socket is born `SOCK_NONBLOCK`, the SYN
        // goes out immediately, and the handshake (if still in flight)
        // completes below through the reactor's own epoll instance.
        let (stream, done) = epoll::connect_nonblocking(cfg.addr)?;
        let framed = FramedConn::new(stream)?;
        epoll.register(framed.stream(), Token(w as u64), Interest::BOTH)?;
        connected[w] = done;
        if !done {
            awaiting += 1;
        }
        let mut conn = GenConn {
            framed,
            quota_left: quota,
            in_flight: VecDeque::new(),
            seq: 0,
            replies: 0,
            bins: Vec::new(),
        };
        // Epoch 0 is the discovery handshake: "whatever membership you
        // are serving". A generator re-dialing across a rebalance would
        // assert the epoch it learned from earlier `RESP_BIN`s instead.
        #[allow(clippy::cast_possible_truncation)]
        conn.framed.queue(&Frame::Hello {
            client_id: w as u32,
            epoch: 0,
        });
        conns.push(conn);
    }

    // Complete the in-flight handshakes before priming any windows: a
    // writable edge confirms a connect; `take_error` surfaces refusal.
    let mut events = Events::with_capacity(64);
    let mut stalled_polls = 0u32;
    while awaiting > 0 {
        let n = epoll.wait(&mut events, Some(100))?;
        if n == 0 {
            stalled_polls += 1;
            if stalled_polls > 100 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("load generator stalled: {awaiting} connects unfinished after 10 s"),
                ));
            }
            continue;
        }
        stalled_polls = 0;
        for event in events.iter() {
            let w = event.token.0 as usize;
            if connected[w] || !(event.writable || event.error || event.hangup) {
                continue;
            }
            if let Some(err) = conns[w].framed.stream().take_error()? {
                return Err(err);
            }
            connected[w] = true;
            awaiting -= 1;
        }
    }

    // Prime each connection's window, interleaved in seeded arrival
    // order: where the closed loop has freedom, the seed decides.
    // balloc-lint: allow(L002): load-generator timing — timestamps feed
    // the latency histogram only, never an allocation decision.
    let start = Instant::now();
    let mut ramped = 0usize;
    let ramp_target: usize = quotas
        .iter()
        .map(|&q| {
            #[allow(clippy::cast_possible_truncation)]
            let q = q.min(cfg.pipeline as u64) as usize;
            q
        })
        .sum();
    for w in ArrivalSchedule::new(cfg.seed, &quotas) {
        if ramped == ramp_target {
            break;
        }
        let conn = &mut conns[w];
        if conn.in_flight.len() < cfg.pipeline && conn.quota_left > 0 {
            conn.quota_left -= 1;
            // balloc-lint: allow(L002): latency timestamping only.
            conn.send_one(&cfg.request, Instant::now());
            ramped += 1;
        }
    }
    for conn in &mut conns {
        let _ = conn.framed.flush()?;
    }

    let mut histogram = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    let total = cfg.requests;
    let mut stalled_polls = 0u32;
    while completed + errors < total {
        let n = epoll.wait(&mut events, Some(100))?;
        if n == 0 {
            stalled_polls += 1;
            if stalled_polls > 100 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "load generator stalled: no replies for 10 s",
                ));
            }
            continue;
        }
        stalled_polls = 0;
        for event in events.iter() {
            let w = event.token.0 as usize;
            let conn = &mut conns[w];
            if event.readable || event.hangup {
                let eof = conn.framed.read_drain()?;
                drain_replies(conn, cfg, &mut histogram, &mut completed, &mut errors)?;
                if eof && conn.replies < quotas[w] {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "server closed connection {w} with {} replies outstanding",
                            quotas[w] - conn.replies
                        ),
                    ));
                }
            }
            if conn.framed.wants_write() {
                let _ = conn.framed.flush()?;
            }
        }
    }
    let elapsed = start.elapsed();

    let sent: u64 = conns.iter().map(|c| c.seq).sum();
    let secs = elapsed.as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let throughput_rps = if secs > 0.0 {
        completed as f64 / secs
    } else {
        0.0
    };
    let digest = if cfg.collect_bins && errors == 0 {
        let clients = cfg.connections as u64;
        let mut fnv = Fnv1a::new();
        for t in 0..total {
            #[allow(clippy::cast_possible_truncation)]
            let w = (t % clients) as usize;
            #[allow(clippy::cast_possible_truncation)]
            let i = (t / clients) as usize;
            fnv.write_u64(conns[w].bins[i]);
        }
        Some(fnv.finish())
    } else {
        None
    };
    Ok(LoadGenReport {
        sent,
        completed,
        errors,
        elapsed,
        throughput_rps,
        p50_us: histogram.quantile(0.50),
        p99_us: histogram.quantile(0.99),
        p999_us: histogram.quantile(0.999),
        histogram,
        digest,
    })
}

/// Pulls every decoded reply off one connection, recording latencies and
/// topping the pipeline back up.
fn drain_replies(
    conn: &mut GenConn,
    cfg: &LoadGenConfig,
    histogram: &mut LatencyHistogram,
    completed: &mut u64,
    errors: &mut u64,
) -> io::Result<()> {
    loop {
        match conn.framed.decoder().next_frame() {
            Ok(Some(frame)) => {
                match frame {
                    Frame::RespBin {
                        req_id,
                        bin,
                        epoch: _,
                    } => {
                        // Both checks guard against peer input: a reply
                        // with nothing in flight, or out of order, is a
                        // protocol error, not a panic.
                        let Some(sent_at) = conn.in_flight.pop_front() else {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("reply {req_id} without a request in flight"),
                            ));
                        };
                        if req_id != conn.replies + 1 {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "out-of-order reply: got req_id {req_id}, expected {}",
                                    conn.replies + 1
                                ),
                            ));
                        }
                        // balloc-lint: allow(L002): latency measurement.
                        let us = u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                        histogram.record(us);
                        conn.replies += 1;
                        *completed += 1;
                        if cfg.collect_bins {
                            conn.bins.push(bin);
                        }
                    }
                    Frame::RespErr { req_id, code: _ } => {
                        // An attributable error answers exactly one
                        // in-flight request; req_id 0 is a protocol-level
                        // complaint with no request to retire.
                        if req_id != 0 {
                            let _ = conn.in_flight.pop_front();
                            conn.replies += 1;
                        }
                        *errors += 1;
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected frame from server: {other:?}"),
                        ))
                    }
                }
                // Closed loop: one reply admits one new request.
                if conn.in_flight.len() < cfg.pipeline && conn.quota_left > 0 {
                    conn.quota_left -= 1;
                    // balloc-lint: allow(L002): latency timestamping only.
                    conn.send_one(&cfg.request, Instant::now());
                }
            }
            Ok(None) => break,
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("undecodable server reply: {e}"),
                ))
            }
        }
    }
    let _ = conn.framed.flush()?;
    Ok(())
}
