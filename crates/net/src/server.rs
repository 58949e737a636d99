//! The epoll reactor serving allocation requests over TCP.
//!
//! One thread owns everything: the listener, every connection's framed
//! state machine, the decision states, and the authoritative store. The
//! reactor is edge-triggered — each readiness event drains its direction
//! to `WouldBlock` — and dispatches decoded `ALLOC` frames into the
//! serve-layer leaf over one direct store in one of two modes (see
//! [`ServerMode`]).
//!
//! Back-pressure is structural: a closed-loop client with pipeline depth
//! `P` can have at most `P` requests buffered here, and a slow client
//! simply stops being read once its window is unacknowledged — TCP flow
//! control *is* the admission control.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use balloc_core::rng::Fnv1a;
use balloc_core::LoadState;
use balloc_serve::{
    DirectCluster, NoiseMode, Request, Service, SnapshotAllocator, SnapshotService, Staleness,
    VClock,
};
use epoll::{Epoll, Events, Interest, Token};

use crate::conn::FramedConn;
use crate::wire::{ErrorCode, Frame};

/// How the server dispatches decoded requests into the serve layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// The hot path: per-connection [`SnapshotService`] over a direct
    /// (unbuffered) store, with consecutive same-template `ALLOC` frames
    /// batched into one [`SnapshotService::call_block`] run — pipelining
    /// on the wire becomes block dispatch in the allocator, feeding the
    /// batched kernels full windows instead of single balls.
    Inline,
    /// The determinism path: `clients` connections are the replay
    /// engine's virtual workers. Requests are served in strict global
    /// round-robin order (step `t` waits for client `t mod clients`), so
    /// the decision stream — and the digest — is bit-identical to
    /// [`balloc_serve::run_replay`] at the same `(n, shards, staleness,
    /// seed, request)`.
    Replay {
        /// Number of replay clients (= replay workers). Every client id
        /// in `0..clients` must connect exactly once.
        clients: usize,
    },
}

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of bins.
    pub n: usize,
    /// Number of shards in the authoritative store.
    pub shards: usize,
    /// Snapshot refresh policy of every connection's decision state.
    pub staleness: Staleness,
    /// Master seed; the connection identifying as `client_id` decides
    /// with [`SnapshotAllocator::for_worker`]`(.., seed, client_id)` —
    /// the in-process engines' worker seeding.
    pub seed: u64,
    /// Dispatch mode.
    pub mode: ServerMode,
}

impl NetConfig {
    fn validate(&self) {
        assert!(self.n > 0, "need at least one bin");
        assert!(
            self.shards > 0 && self.shards <= self.n,
            "shards must lie in 1..=n"
        );
        self.staleness.validate();
        if let ServerMode::Replay { clients } = self.mode {
            assert!(clients > 0, "replay needs at least one client");
        }
    }
}

/// Cross-thread stop signal for a running [`NetServer`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Asks the server to drain in-flight requests, reply, and stop. The
    /// reactor observes the flag within its poll timeout (~10 ms).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What a server run did, measured at shutdown.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Connections accepted over the run.
    pub accepted: u64,
    /// Requests that placed a ball (one `RESP_BIN` each).
    pub served: u64,
    /// Requests rejected by the serve layer or the drain
    /// (`RESP_ERR` with a serve/shutdown code).
    pub rejected: u64,
    /// Malformed/unknown frames answered with protocol error codes.
    pub protocol_errors: u64,
    /// Snapshot refreshes summed over every connection's decision state.
    pub refreshes: u64,
    /// FNV-1a digest over every chosen bin in serve order. In
    /// [`ServerMode::Replay`] this equals
    /// [`balloc_serve::run_replay`]'s digest for the same config/seed.
    pub digest: u64,
    /// The final authoritative loads; holds exactly
    /// [`served`](Self::served) balls (asserted).
    pub state: LoadState,
}

const LISTENER: Token = Token(0);
/// Poll timeout: the latency ceiling on observing the shutdown flag.
const POLL_MS: i32 = 10;

/// The direct store, shared by every connection's service one call at a
/// time (the reactor never interleaves within a request).
type SharedStore = Rc<RefCell<DirectCluster>>;

/// Per-connection dispatch state.
enum Driver {
    /// No valid `HELLO` yet: the only acceptable frame identifies the
    /// client.
    AwaitingHello,
    Inline(Box<SnapshotService<SharedStore>>),
    Replay {
        client: usize,
    },
}

struct ConnEntry {
    conn: FramedConn,
    driver: Driver,
    close_after_flush: bool,
}

struct ReplayState {
    /// Every client id's leaf over the shared store and the reactor's
    /// clock; it serves with `run_replay`'s refresh → decide → apply
    /// step. Step `t` (the clock's reading) is served by client
    /// `t mod clients`.
    stacks: Vec<SnapshotService<SharedStore>>,
    /// Decoded-but-unserved requests per client, awaiting their
    /// round-robin turn.
    pending: Vec<VecDeque<(u64, Request)>>,
    /// Connection slot currently owned by each client id.
    conn_of: Vec<Option<usize>>,
}

/// A bound, not-yet-running server. [`run`](Self::run) consumes it on the
/// reactor thread (the store is single-thread-owned, so the server itself
/// never migrates after starting).
#[derive(Debug)]
pub struct NetServer {
    cfg: NetConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds the listener and validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (zero bins, `shards ∉ 1..=n`,
    /// zero clients).
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        cfg.validate();
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            cfg,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (`bind` with port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`run`](Self::run) from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Runs the reactor until its [`ShutdownHandle`] fires (a peer's
    /// `SHUTDOWN` frame is refused, not obeyed), then drains: stops
    /// accepting, serves every request already received, flushes every
    /// reply, and closes. No accepted request goes unanswered — it is
    /// either served or rejected with [`ErrorCode::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// Propagates reactor-fatal I/O errors (epoll or listener setup
    /// failures). A failed `accept` ends only that accept round, and
    /// per-connection errors only close that connection.
    ///
    /// # Panics
    ///
    /// Panics if the final authoritative state disagrees with the served
    /// count — the conservation contract.
    pub fn run(self) -> io::Result<ServerReport> {
        let store = Rc::new(RefCell::new(DirectCluster::new(
            self.cfg.n,
            self.cfg.shards,
        )));
        let clock = VClock::new();
        let cfg = self.cfg;
        let alloc = |w: usize| SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w);
        let replay = match cfg.mode {
            ServerMode::Replay { clients } => Some(ReplayState {
                stacks: (0..clients)
                    .map(|w| SnapshotService::new(alloc(w), Rc::clone(&store), clock.clone()))
                    .collect(),
                pending: (0..clients).map(|_| VecDeque::new()).collect(),
                conn_of: vec![None; clients],
            }),
            ServerMode::Inline => None,
        };
        let epoll = Epoll::new()?;
        self.listener.set_nonblocking(true)?;
        epoll.register(&self.listener, LISTENER, Interest::READABLE)?;
        // The store's membership map. The reactor serves one epoch for
        // its whole run (live rebalance is the churn engine's domain);
        // clients assert it in HELLO and see it stamped on every
        // RESP_BIN.
        let epoch = store.borrow().directory().epoch().0;
        let reactor = Reactor {
            epoch,
            cfg: self.cfg,
            epoll,
            listener: self.listener,
            shutdown: self.shutdown,
            conns: Vec::new(),
            clock,
            store,
            replay,
            digest: Fnv1a::new(),
            accepted: 0,
            served: 0,
            rejected: 0,
            protocol_errors: 0,
            refreshes: 0,
            run_ids: Vec::new(),
        };
        reactor.run()
    }
}

/// Whether the server decides `req` over `n` bins: between one and `n`
/// candidate bins, and a noise deviation that is finite and
/// non-negative. A well-framed `ALLOC` can carry anything else; deciding
/// `d = 0` or a bad deviation would panic, and a `d` past `n` only costs
/// the reactor draws (up to 65 535 per request) that one peer chooses.
fn decidable(req: &Request, n: usize) -> bool {
    (1..=n).contains(&req.d)
        && match req.noise {
            NoiseMode::Snapshot => true,
            NoiseMode::Noisy { sigma } => sigma >= 0.0 && sigma.is_finite(),
        }
}

/// Queues `frame` on connection slot `conn`, if it is still open.
fn queue_on(conns: &mut [Option<ConnEntry>], conn: Option<usize>, frame: &Frame) {
    if let Some(entry) = conn
        .and_then(|idx| conns.get_mut(idx))
        .and_then(Option::as_mut)
    {
        entry.conn.queue(frame);
    }
}

struct Reactor {
    cfg: NetConfig,
    /// The membership epoch served and stamped on every `RESP_BIN`.
    epoch: u64,
    epoll: Epoll,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<ConnEntry>>,
    clock: VClock,
    store: SharedStore,
    replay: Option<ReplayState>,
    digest: Fnv1a,
    accepted: u64,
    served: u64,
    rejected: u64,
    protocol_errors: u64,
    refreshes: u64,
    /// Scratch: req_ids of the inline run currently being batched.
    run_ids: Vec<u64>,
}

impl Reactor {
    fn run(mut self) -> io::Result<ServerReport> {
        let mut events = Events::with_capacity(256);
        while !self.shutdown.load(Ordering::Acquire) {
            self.epoll.wait(&mut events, Some(POLL_MS))?;
            for event in events.iter() {
                if event.token == LISTENER {
                    self.accept_ready();
                } else {
                    let idx = (event.token.0 - 1) as usize;
                    if event.readable || event.hangup || event.error {
                        self.conn_ready(idx);
                    } else if event.writable {
                        self.conn_writable(idx);
                    }
                }
            }
            self.pump_replay();
        }
        self.drain();
        self.finish()
    }

    /// Accepts until `WouldBlock`, registering each connection
    /// edge-triggered for both directions once. A connection aborted
    /// before it was accepted is skipped; any other accept error (a full
    /// fd table, kernel memory) ends this round and the reactor keeps
    /// serving the connections it has.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let Ok(conn) = FramedConn::new(stream) else {
                        continue;
                    };
                    let idx = self
                        .conns
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| {
                            self.conns.push(None);
                            self.conns.len() - 1
                        });
                    if self
                        .epoll
                        .register(conn.stream(), Token(idx as u64 + 1), Interest::BOTH)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns[idx] = Some(ConnEntry {
                        conn,
                        driver: Driver::AwaitingHello,
                        close_after_flush: false,
                    });
                    self.accepted += 1;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                // `WouldBlock` ends the round as intended; anything else
                // ends it early.
                Err(_) => return,
            }
        }
    }

    /// A readable (or closing) edge on connection `idx`: drain, decode,
    /// dispatch, flush, maybe close.
    fn conn_ready(&mut self, idx: usize) {
        let Some(mut entry) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let eof = match entry.conn.read_drain() {
            Ok(eof) => eof,
            Err(_) => {
                self.close_conn(entry);
                return;
            }
        };
        self.process_frames(&mut entry, idx);
        if eof {
            entry.close_after_flush = true;
        }
        let flushed = entry.conn.flush().unwrap_or_else(|_| {
            entry.close_after_flush = true;
            true
        });
        if entry.close_after_flush && (flushed || entry.conn.eof()) {
            self.close_conn(entry);
        } else {
            self.conns[idx] = Some(entry);
        }
    }

    /// A writable edge: flush what is queued; close if that was the last
    /// duty.
    fn conn_writable(&mut self, idx: usize) {
        let Some(mut entry) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let flushed = entry.conn.flush().unwrap_or_else(|_| {
            entry.close_after_flush = true;
            true
        });
        if entry.close_after_flush && flushed {
            self.close_conn(entry);
        } else {
            self.conns[idx] = Some(entry);
        }
    }

    /// Decodes and dispatches every complete frame buffered on `entry`.
    fn process_frames(&mut self, entry: &mut ConnEntry, idx: usize) {
        // Inline-mode run batching: consecutive ALLOCs sharing a template
        // accumulate here and dispatch as one block.
        let mut template: Option<Request> = None;
        loop {
            // A handler that condemned the connection (stale epoch, bad
            // HELLO) ends its input stream here: frames pipelined behind
            // the refusal are dead, not served.
            if entry.close_after_flush {
                break;
            }
            match entry.conn.decoder().next_frame() {
                Ok(Some(frame)) => match frame {
                    Frame::Alloc { req_id, d, noise } => {
                        let req = Request {
                            d: usize::from(d),
                            noise,
                        };
                        if decidable(&req, self.cfg.n) {
                            self.dispatch_alloc(entry, req_id, req, &mut template);
                        } else {
                            // Answered in order, and the connection stays.
                            self.flush_run(entry, &mut template);
                            self.refuse(entry, req_id, ErrorCode::Malformed);
                        }
                    }
                    Frame::Hello { client_id, epoch } => {
                        self.flush_run(entry, &mut template);
                        self.handle_hello(entry, idx, client_id, epoch);
                    }
                    // Only the owner's `ShutdownHandle` stops the server:
                    // a peer's SHUTDOWN is refused, and the connection stays.
                    Frame::Shutdown => {
                        self.flush_run(entry, &mut template);
                        self.refuse(entry, 0, ErrorCode::UnknownOpcode);
                    }
                    // Reply frames from a confused peer: skip (the
                    // protocol is asymmetric; replying to a reply would
                    // loop).
                    Frame::RespBin { .. } | Frame::RespErr { .. } => {
                        self.protocol_errors += 1;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    self.flush_run(entry, &mut template);
                    self.refuse(entry, 0, e.code());
                    if e.is_fatal() {
                        entry.close_after_flush = true;
                        break;
                    }
                }
            }
        }
        self.flush_run(entry, &mut template);
    }

    /// Routes one `ALLOC` by the connection's driver.
    fn dispatch_alloc(
        &mut self,
        entry: &mut ConnEntry,
        req_id: u64,
        req: Request,
        template: &mut Option<Request>,
    ) {
        match (&entry.driver, self.replay.as_mut()) {
            (Driver::Inline(_), _) => {
                if *template != Some(req) {
                    self.flush_run(entry, template);
                    *template = Some(req);
                }
                self.run_ids.push(req_id);
            }
            (Driver::Replay { client }, Some(replay)) => {
                replay.pending[*client].push_back((req_id, req));
            }
            // Not identified yet, or (unreachable by construction) a
            // replay driver without replay state: refuse the stream.
            (Driver::AwaitingHello | Driver::Replay { .. }, _) => {
                self.refuse(entry, req_id, ErrorCode::BadHello);
                entry.close_after_flush = true;
            }
        }
    }

    /// Answers a frame the server refuses with `RESP_ERR` and counts it.
    fn refuse(&mut self, entry: &mut ConnEntry, req_id: u64, code: ErrorCode) {
        entry.conn.queue(&Frame::RespErr { req_id, code });
        self.protocol_errors += 1;
    }

    /// Dispatches the accumulated inline run (no-op for other drivers).
    fn flush_run(&mut self, entry: &mut ConnEntry, template: &mut Option<Request>) {
        let Some(req) = template.take() else { return };
        let Driver::Inline(svc) = &mut entry.driver else {
            self.run_ids.clear();
            return;
        };
        if self.run_ids.is_empty() {
            return;
        }
        let conn = &mut entry.conn;
        let digest = &mut self.digest;
        let served = &mut self.served;
        let rejected = &mut self.rejected;
        let epoch = self.epoch;
        let mut i = 0usize;
        let ids = &self.run_ids;
        svc.call_block(&req, ids.len() as u64, &mut |res| {
            let req_id = ids[i];
            i += 1;
            match res {
                Ok(resp) => {
                    digest.write_u64(resp.bin as u64);
                    *served += 1;
                    conn.queue(&Frame::RespBin {
                        req_id,
                        bin: resp.bin as u64,
                        epoch,
                    });
                }
                Err(e) => {
                    *rejected += 1;
                    conn.queue(&Frame::RespErr {
                        req_id,
                        code: e.into(),
                    });
                }
            }
        });
        self.run_ids.clear();
    }

    /// Identifies a connection, building its decision stack.
    fn handle_hello(&mut self, entry: &mut ConnEntry, idx: usize, client_id: u32, epoch: u64) {
        if !matches!(entry.driver, Driver::AwaitingHello) {
            // Re-identifying is a protocol error but not fatal.
            self.refuse(entry, 0, ErrorCode::BadHello);
            return;
        }
        if epoch != 0 && epoch != self.epoch {
            // The client asserted a membership it no longer has: refuse
            // before any decision state is built so it can re-discover.
            self.refuse(entry, 0, ErrorCode::StaleEpoch);
            entry.close_after_flush = true;
            return;
        }
        let cfg = &self.cfg;
        let alloc =
            SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, client_id as usize);
        entry.driver = match self.replay.as_mut() {
            Some(replay) => {
                let client = client_id as usize;
                if client >= replay.conn_of.len() || replay.conn_of[client].is_some() {
                    self.refuse(entry, 0, ErrorCode::BadHello);
                    entry.close_after_flush = true;
                    return;
                }
                replay.conn_of[client] = Some(idx);
                Driver::Replay { client }
            }
            None => Driver::Inline(Box::new(SnapshotService::new(
                alloc,
                Rc::clone(&self.store),
                self.clock.clone(),
            ))),
        };
    }

    /// Serves every replay request whose round-robin turn has come.
    fn pump_replay(&mut self) {
        let Some(mut replay) = self.replay.take() else {
            return;
        };
        let clients = replay.pending.len() as u64;
        loop {
            let w = (self.clock.now() % clients) as usize;
            let Some((req_id, req)) = replay.pending[w].pop_front() else {
                break;
            };
            let reply = match replay.stacks[w].call(req) {
                Ok(resp) => {
                    self.digest.write_u64(resp.bin as u64);
                    self.served += 1;
                    Frame::RespBin {
                        req_id,
                        bin: resp.bin as u64,
                        epoch: self.epoch,
                    }
                }
                Err(e) => {
                    self.rejected += 1;
                    Frame::RespErr {
                        req_id,
                        code: e.into(),
                    }
                }
            };
            queue_on(&mut self.conns, replay.conn_of[w], &reply);
        }
        self.replay = Some(replay);
        // Opportunistic flush of everything the pump queued.
        for entry in self.conns.iter_mut().flatten() {
            if entry.conn.wants_write() {
                let _ = entry.conn.flush();
            }
        }
    }

    /// Graceful drain: serve everything already received, answer the
    /// unservable, flush every reply fully, close.
    fn drain(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(mut entry) = self.conns[idx].take() else {
                continue;
            };
            // One final drain of bytes the kernel already accepted.
            let _ = entry.conn.read_drain();
            self.process_frames(&mut entry, idx);
            self.conns[idx] = Some(entry);
        }
        self.pump_replay();
        // Replay requests whose round-robin turn never came are answered,
        // not dropped.
        if let Some(mut replay) = self.replay.take() {
            for (w, queue) in replay.pending.iter_mut().enumerate() {
                while let Some((req_id, _req)) = queue.pop_front() {
                    self.rejected += 1;
                    let code = ErrorCode::ShuttingDown;
                    let reply = Frame::RespErr { req_id, code };
                    queue_on(&mut self.conns, replay.conn_of[w], &reply);
                }
            }
            self.replay = Some(replay);
        }
        // Flush to completion: switch each socket to blocking so the
        // remaining bytes cannot be lost to a missed edge, then close.
        for idx in 0..self.conns.len() {
            let Some(entry) = self.conns[idx].take() else {
                continue;
            };
            // balloc-lint: allow(L007): graceful-shutdown drain, after the
            // event loop has exited; blocking here is what guarantees every
            // queued reply reaches the peer before close.
            let _ = entry.conn.stream().set_nonblocking(false);
            let mut entry = entry;
            let _ = entry.conn.flush();
            self.close_conn(entry);
        }
    }

    /// Folds a closing connection's bookkeeping into the run totals.
    fn close_conn(&mut self, entry: ConnEntry) {
        match entry.driver {
            Driver::AwaitingHello => {}
            Driver::Inline(svc) => self.refreshes += svc.refreshes(),
            Driver::Replay { client } => {
                if let Some(replay) = self.replay.as_mut() {
                    replay.conn_of[client] = None;
                }
            }
        }
        // `entry` (and its stream) drops here; closing the fd removes it
        // from the epoll interest list.
    }

    fn finish(mut self) -> io::Result<ServerReport> {
        if let Some(replay) = &self.replay {
            self.refreshes += replay
                .stacks
                .iter()
                .map(SnapshotService::refreshes)
                .sum::<u64>();
        }
        debug_assert!(self.conns.iter().all(Option::is_none), "drain closed all");
        let state = self.store.borrow().state();
        assert_eq!(
            state.balls(),
            self.served,
            "the final authoritative state must hold every served ball"
        );
        Ok(ServerReport {
            accepted: self.accepted,
            served: self.served,
            rejected: self.rejected,
            protocol_errors: self.protocol_errors,
            refreshes: self.refreshes,
            digest: self.digest.finish(),
            state,
        })
    }
}
