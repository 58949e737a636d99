//! A bounded request buffer in front of a worker-owned service — the
//! tower-buffer idiom, synchronously.
//!
//! [`Buffer::spawn`] moves the inner service onto a dedicated worker
//! thread and returns a cloneable [`Buffer`] handle plus a
//! [`BufferController`] for shutdown. Callers reach the service through a
//! bounded channel, which is what makes the buffer a *layer* in the
//! systems sense:
//!
//! * it serializes concurrent callers through single-owner state (the
//!   inner service needs neither locks nor `Sync`),
//! * its bound is back-pressure: [`Buffer::cast`] refuses with
//!   [`ServeError::BufferFull`] instead of queueing unboundedly,
//! * enqueue/drain decoupling means a burst is absorbed at channel speed
//!   while the worker catches up — in the serve engine this is exactly
//!   how a shard absorbs a batch of increments.
//!
//! Two calling conventions are exposed: [`Buffer::call`] round-trips a
//! response (used for shard snapshot reads), and [`Buffer::cast`] is
//! fire-and-forget with back-pressure (used for allocation applies, which
//! need no reply — the decision was already made against the snapshot).

use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

use crate::service::{ServeError, Service};

/// One queued unit of work.
enum Job<Req, Res> {
    /// Process and reply on the enclosed one-shot channel (the reply
    /// carries the inner service's own `Result`, so rejections round-trip
    /// intact).
    Call(Req, SyncSender<Result<Res, ServeError>>),
    /// Process; nobody is waiting for the result.
    Cast(Req),
}

/// A cloneable handle to a service running on its own worker thread
/// behind a bounded queue. Created by [`Buffer::spawn`].
#[derive(Debug)]
pub struct Buffer<Req, Res> {
    tx: SyncSender<Job<Req, Res>>,
}

// Derived Clone would demand Req: Clone; the handle is just a sender.
impl<Req, Res> Clone for Buffer<Req, Res> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
        }
    }
}

/// Joins the buffer's worker thread and recovers the inner service.
///
/// Dropping every [`Buffer`] handle closes the queue; `join` then drains
/// whatever was still buffered before handing the service back — so state
/// read off the returned service reflects **every** accepted request.
#[derive(Debug)]
pub struct BufferController<S> {
    worker: JoinHandle<S>,
}

impl<S> BufferController<S> {
    /// Waits for the queue to drain and the worker to exit, returning the
    /// inner service.
    ///
    /// All [`Buffer`] handles must be dropped first, otherwise this blocks
    /// until they are.
    ///
    /// # Panics
    ///
    /// Propagates a panic raised by the inner service on the worker.
    #[must_use]
    pub fn join(self) -> S {
        match self.worker.join() {
            Ok(service) => service,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl<Req, Res> Buffer<Req, Res>
where
    Req: Send + 'static,
    Res: Send + 'static,
{
    /// Spawns a worker thread owning `inner` behind a bounded queue of
    /// `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn spawn<S>(inner: S, capacity: usize) -> (Self, BufferController<S>)
    where
        S: Service<Req, Response = Res> + Send + 'static,
    {
        assert!(capacity > 0, "buffer capacity must be positive");
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        let worker = std::thread::spawn(move || drain(rx, inner));
        (Self { tx }, BufferController { worker })
    }

    /// Enqueues `req` and blocks for the response.
    ///
    /// Blocks while the queue is full (the caller opted into the
    /// round-trip, so back-pressure is waiting, not rejection).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the worker is gone, or the inner
    /// service's own rejection.
    pub fn call(&mut self, req: Req) -> Result<Res, ServeError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        self.tx
            .send(Job::Call(req, reply_tx))
            .map_err(|_| ServeError::Closed)?;
        reply_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Enqueues `req` without waiting for a result.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BufferFull`] when the queue is at capacity
    /// (back-pressure) and [`ServeError::Closed`] if the worker is gone.
    pub fn cast(&mut self, req: Req) -> Result<(), ServeError> {
        match self.tx.try_send(Job::Cast(req)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServeError::BufferFull),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Closed),
        }
    }
}

impl<Req, Res> Service<Req> for Buffer<Req, Res>
where
    Req: Send + 'static,
    Res: Send + 'static,
{
    type Response = Res;

    fn call(&mut self, req: Req) -> Result<Res, ServeError> {
        Buffer::call(self, req)
    }
}

/// The worker loop: drain jobs until every handle is dropped, then return
/// the service so [`BufferController::join`] can hand it back.
fn drain<Req, Res, S>(rx: Receiver<Job<Req, Res>>, mut inner: S) -> S
where
    S: Service<Req, Response = Res>,
{
    while let Ok(job) = rx.recv() {
        match job {
            Job::Call(req, reply) => {
                // A dropped reply receiver means the caller gave up; the
                // work is already done, so ignore the send error.
                let _ = reply.send(inner.call(req));
            }
            Job::Cast(req) => {
                let _ = inner.call(req);
            }
        }
    }
    inner
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service that owns a running sum (deliberately not shareable).
    struct Summer {
        total: u64,
    }

    impl Service<u64> for Summer {
        type Response = u64;

        fn call(&mut self, req: u64) -> Result<u64, ServeError> {
            self.total += req;
            Ok(self.total)
        }
    }

    #[test]
    fn call_round_trips_through_the_worker() {
        let (mut handle, controller) = Buffer::spawn(Summer { total: 0 }, 4);
        assert_eq!(handle.call(5).unwrap(), 5);
        assert_eq!(handle.call(7).unwrap(), 12);
        drop(handle);
        let inner = controller.join();
        assert_eq!(inner.total, 12);
    }

    #[test]
    fn join_sees_every_accepted_cast() {
        let (handle, controller) = Buffer::spawn(Summer { total: 0 }, 64);
        let mut accepted = 0u64;
        let mut clones: Vec<_> = (0..4).map(|_| handle.clone()).collect();
        drop(handle);
        for round in 0..200u64 {
            for handle in &mut clones {
                if handle.cast(round).is_ok() {
                    accepted += round;
                }
            }
        }
        drop(clones);
        let inner = controller.join();
        assert_eq!(inner.total, accepted, "drained total must match accepted casts");
    }

    #[test]
    fn cast_reports_back_pressure_when_full() {
        /// A service that blocks until released, pinning the queue.
        struct Gate(std::sync::mpsc::Receiver<()>);
        impl Service<u64> for Gate {
            type Response = u64;
            fn call(&mut self, req: u64) -> Result<u64, ServeError> {
                self.0.recv().expect("release signal");
                Ok(req)
            }
        }
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let (mut handle, controller) = Buffer::spawn(Gate(release_rx), 2);
        // One job occupies the worker, two fill the queue; the next cast
        // must refuse rather than queue unboundedly. The worker may or may
        // not have dequeued the first job yet, so allow one extra accept.
        let mut accepted = 0;
        let mut full = 0;
        for i in 0..5u64 {
            match handle.cast(i) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert_eq!(e, ServeError::BufferFull);
                    full += 1;
                }
            }
        }
        assert!((2..=3).contains(&accepted), "accepted {accepted}");
        assert!(full >= 2, "expected back-pressure, got {full} rejections");
        for _ in 0..accepted {
            release_tx.send(()).unwrap();
        }
        drop(handle);
        let _ = controller.join();
    }

    #[test]
    fn inner_rejection_round_trips_through_call() {
        struct AlwaysShed;
        impl Service<u64> for AlwaysShed {
            type Response = u64;
            fn call(&mut self, _req: u64) -> Result<u64, ServeError> {
                Err(ServeError::Shed)
            }
        }
        let (mut handle, controller) = Buffer::spawn(AlwaysShed, 2);
        assert_eq!(handle.call(1), Err(ServeError::Shed));
        drop(handle);
        let _ = controller.join();
    }

    #[test]
    fn dead_worker_reports_closed() {
        // The worker only exits on its own when every sender is gone, so
        // the one way a live handle can observe `Closed` is the worker
        // dying mid-request. Panic it deliberately and let the surviving
        // handle watch the channel close.
        struct Bomb;
        impl Service<u64> for Bomb {
            type Response = u64;
            fn call(&mut self, _req: u64) -> Result<u64, ServeError> {
                panic!("boom");
            }
        }
        let (mut handle, controller) = Buffer::spawn(Bomb, 1);
        let _ = handle.cast(1);
        // The panic tears the receiver down shortly; poll until the
        // channel reports it.
        // balloc-lint: allow(L002): watchdog deadline for a real spawned
        // thread — bounds the poll loop, decides nothing about allocation.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match handle.cast(2) {
                Err(ServeError::Closed) => break,
                // balloc-lint: allow(L002): same watchdog, see above.
                _ if std::time::Instant::now() > deadline => {
                    panic!("worker never closed the channel")
                }
                _ => std::thread::yield_now(),
            }
        }
        assert_eq!(Service::call(&mut handle, 3), Err(ServeError::Closed));
        drop(handle);
        // join surfaces the worker's panic.
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _ = controller.join();
        }));
        assert!(joined.is_err(), "join must propagate the worker panic");
    }
}
