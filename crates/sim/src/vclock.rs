//! A shared deterministic virtual clock with a deadline register.
//!
//! The serving layer's resilience middleware (timeouts, hedged requests,
//! cooldowns, rate windows) needs a notion of *time* that is a pure
//! function of the configuration and seed — wall clocks would make every
//! latency percentile and every circuit-breaker transition
//! non-reproducible. [`VClock`] is that notion: a monotone tick counter
//! shared by every layer of a service stack, advanced explicitly by the
//! component that "spends" time (a fault-injected backend, the engine's
//! inter-arrival spacing).
//!
//! The deadline register is what makes synchronous timeouts sound. A
//! layer that wants to bound a call opens a [`DeadlineScope`], calls the
//! inner service, and lets the scope drop. Scopes nest: the active cutoff
//! is the minimum of every open scope's deadline, and each scope restores
//! the cutoff it found when it drops. When the backend tries to advance
//! the clock *past* the cutoff, [`VClock::advance`] refuses: the clock
//! stops at the cutoff (or stays put, if the cutoff is already behind
//! it), the would-be completion time is recorded (for hedging's regret
//! accounting), and the backend gets [`DeadlineExpired`] — *before* it
//! applies any side effect. A timed-out request therefore never
//! half-happens, which is the substrate of the serve engine's
//! conservation invariant (every request ends exactly once).
//!
//! # The serialized-owner contract
//!
//! A clock and all its clones are driven by one thread at a time. Clones
//! may cross threads, but only through a synchronizing handoff: a thread
//! spawn or join, a channel round trip (a worker that answers each call
//! over a channel before the caller touches the clock again), or a lock. Two threads advancing one clock at the same moment
//! is outside the contract: the result would not be a function of the
//! seed, whatever the clock did internally.
//!
//! Under that contract the three registers (`now`, the cutoff, the last
//! overrun) need no read-modify-write and no ordering of their own. Each
//! is an `AtomicU64` read and written with `Relaxed` loads and stores,
//! which compile to ordinary memory accesses with no lock prefix. Within
//! one thread, program order already sequences every access. Across a
//! handoff, the synchronizing operation makes every store before it
//! visible to every load after it. The atomics are there only so that
//! `VClock` is `Sync` without a lock.
//!
//! # Examples
//!
//! ```
//! use balloc_sim::VClock;
//!
//! let clock = VClock::new();
//! {
//!     let _scope = clock.deadline_scope(10);
//!     assert_eq!(clock.advance(7), Ok(7));        // within budget
//!     assert!(clock.advance(7).is_err());         // 7 + 7 > 10: expired
//!     assert_eq!(clock.now(), 10);                // stopped at the cutoff
//!     assert_eq!(clock.last_overrun(), Some(14)); // would have finished at 14
//! }
//! assert_eq!(clock.advance(7), Ok(17)); // unbounded again
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Cutoff register value meaning "no deadline is active".
const NO_CUTOFF: u64 = u64::MAX;
/// Overrun register value meaning "no advance has been refused yet". A
/// refused target is always greater than some cutoff, so it is never 0.
const NO_OVERRUN: u64 = 0;

/// Error returned by [`VClock::advance`] when the requested advance would
/// cross the active cutoff. The clock is left at the cutoff (or where it
/// was, if that is later) and the would-be completion time is readable
/// via [`VClock::last_overrun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExpired;

impl std::fmt::Display for DeadlineExpired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("virtual-clock advance crossed the active deadline")
    }
}

impl std::error::Error for DeadlineExpired {}

#[derive(Debug)]
struct Registers {
    now: AtomicU64,
    /// Minimum deadline (absolute tick) over the open scopes, or
    /// [`NO_CUTOFF`].
    cutoff: AtomicU64,
    /// The tick the last refused advance *would* have completed at, or
    /// [`NO_OVERRUN`].
    overrun: AtomicU64,
}

/// A shared deterministic virtual clock (see the module docs).
///
/// Cheap to clone: clones share the same counter and deadline register,
/// so every layer of a service stack (and every worker of an engine)
/// observes the same time.
#[derive(Debug, Clone)]
pub struct VClock {
    regs: Arc<Registers>,
}

// A clock may be handed to a worker thread; keep that possible without a
// lock.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<VClock>();
};

impl Default for VClock {
    fn default() -> Self {
        Self {
            regs: Arc::new(Registers {
                now: AtomicU64::new(0),
                cutoff: AtomicU64::new(NO_CUTOFF),
                overrun: AtomicU64::new(NO_OVERRUN),
            }),
        }
    }
}

impl VClock {
    /// A fresh clock at tick 0 with no deadlines.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.regs.now.load(Relaxed)
    }

    /// Advances the clock by `ticks`, unless that would cross the active
    /// cutoff.
    ///
    /// On success returns the new current tick. On refusal time passes up
    /// to the cutoff — the caller waited that long before giving up — but
    /// never runs backwards: a cutoff already behind the clock leaves it
    /// where it is. The would-be completion tick is stored for
    /// [`last_overrun`](Self::last_overrun) and [`DeadlineExpired`] is
    /// returned. Saturates at `u64::MAX` instead of wrapping.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExpired`] when `now + ticks` exceeds the active
    /// cutoff.
    pub fn advance(&self, ticks: u64) -> Result<u64, DeadlineExpired> {
        let now = self.regs.now.load(Relaxed);
        let target = now.saturating_add(ticks);
        let cutoff = self.regs.cutoff.load(Relaxed);
        if target > cutoff {
            self.regs.overrun.store(target, Relaxed);
            self.regs.now.store(now.max(cutoff), Relaxed);
            return Err(DeadlineExpired);
        }
        self.regs.now.store(target, Relaxed);
        Ok(target)
    }

    /// Opens a deadline scope at absolute tick `at`: until the returned
    /// guard drops, [`advance`](Self::advance) refuses to cross
    /// `min(at, the cutoff of any enclosing scope)`.
    ///
    /// Scopes must end in the reverse order they were opened, which
    /// lexical scoping gives for free.
    pub fn deadline_scope(&self, at: u64) -> DeadlineScope<'_> {
        let prev = self.regs.cutoff.load(Relaxed);
        self.regs.cutoff.store(prev.min(at), Relaxed);
        DeadlineScope { clock: self, prev }
    }

    /// The active cutoff, if any scope is open.
    #[must_use]
    pub fn deadline(&self) -> Option<u64> {
        Some(self.regs.cutoff.load(Relaxed)).filter(|&c| c != NO_CUTOFF)
    }

    /// The tick the last refused [`advance`](Self::advance) would have
    /// completed at — the "how late would it have been" input to hedging
    /// regret accounting. `None` until the first refusal.
    #[must_use]
    pub fn last_overrun(&self) -> Option<u64> {
        Some(self.regs.overrun.load(Relaxed)).filter(|&t| t != NO_OVERRUN)
    }
}

/// An open deadline on a [`VClock`], from
/// [`VClock::deadline_scope`]. Dropping it restores the cutoff that was
/// active when it was opened.
#[derive(Debug)]
#[must_use = "the deadline is lifted as soon as the scope drops"]
pub struct DeadlineScope<'a> {
    clock: &'a VClock,
    prev: u64,
}

impl Drop for DeadlineScope<'_> {
    fn drop(&mut self) {
        self.clock.regs.cutoff.store(self.prev, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically_without_deadlines() {
        let clock = VClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.advance(3), Ok(3));
        assert_eq!(clock.advance(0), Ok(3));
        assert_eq!(clock.advance(4), Ok(7));
        assert_eq!(clock.now(), 7);
        assert_eq!(clock.last_overrun(), None);
    }

    #[test]
    fn clones_share_time() {
        let a = VClock::new();
        let b = a.clone();
        a.advance(5).unwrap();
        assert_eq!(b.now(), 5);
        b.advance(2).unwrap();
        assert_eq!(a.now(), 7);
    }

    #[test]
    fn deadline_clamps_and_records_overrun() {
        let clock = VClock::new();
        let _scope = clock.deadline_scope(10);
        assert_eq!(clock.advance(9), Ok(9));
        assert_eq!(
            clock.advance(1),
            Ok(10),
            "landing exactly on the deadline is fine"
        );
        assert_eq!(clock.advance(1), Err(DeadlineExpired));
        assert_eq!(clock.now(), 10, "clamped to the deadline, not beyond");
        assert_eq!(clock.last_overrun(), Some(11));
    }

    #[test]
    fn last_overrun_is_none_until_the_first_refusal() {
        let clock = VClock::new();
        let _scope = clock.deadline_scope(4);
        assert_eq!(clock.advance(4), Ok(4));
        assert_eq!(
            clock.last_overrun(),
            None,
            "an accepted advance is no overrun"
        );
        assert_eq!(clock.advance(1), Err(DeadlineExpired));
        assert_eq!(clock.last_overrun(), Some(5));
    }

    #[test]
    fn stall_records_the_saturated_target() {
        let clock = VClock::new();
        clock.advance(3).unwrap();
        let _scope = clock.deadline_scope(8);
        assert_eq!(clock.advance(u64::MAX), Err(DeadlineExpired));
        assert_eq!(clock.now(), 8);
        assert_eq!(clock.last_overrun(), Some(u64::MAX));
    }

    #[test]
    fn passed_cutoff_refuses_without_running_backwards() {
        let clock = VClock::new();
        clock.advance(10).unwrap();
        let _scope = clock.deadline_scope(5);
        assert_eq!(clock.advance(0), Err(DeadlineExpired));
        assert_eq!(
            clock.now(),
            10,
            "a cutoff behind the clock must not rewind it"
        );
        assert_eq!(clock.last_overrun(), Some(10));
    }

    #[test]
    fn nested_deadlines_honor_the_minimum() {
        let clock = VClock::new();
        {
            let _outer = clock.deadline_scope(100);
            {
                let _inner = clock.deadline_scope(5);
                assert_eq!(clock.advance(7), Err(DeadlineExpired));
                assert_eq!(clock.now(), 5);
            }
            // The outer deadline still binds.
            assert_eq!(clock.advance(200), Err(DeadlineExpired));
            assert_eq!(clock.now(), 100);
        }
        assert_eq!(clock.advance(200), Ok(300));
    }

    #[test]
    fn min_not_lifo_governs_out_of_order_deadlines() {
        // An inner layer may open a *later* deadline than the outer one;
        // the earlier (outer) deadline must still be the cutoff.
        let clock = VClock::new();
        let _outer = clock.deadline_scope(5);
        let _inner = clock.deadline_scope(100);
        assert_eq!(clock.advance(50), Err(DeadlineExpired));
        assert_eq!(clock.now(), 5);
        assert_eq!(clock.deadline(), Some(5));
    }

    #[test]
    fn handoff_across_threads_carries_every_register() {
        let clock = VClock::new();
        clock.advance(2).unwrap();
        let remote = clock.clone();
        std::thread::spawn(move || {
            let _scope = remote.deadline_scope(9);
            assert_eq!(remote.advance(5), Ok(7));
            assert_eq!(remote.advance(5), Err(DeadlineExpired));
        })
        .join()
        .unwrap();
        assert_eq!(clock.now(), 9);
        assert_eq!(clock.last_overrun(), Some(12));
        assert_eq!(
            clock.deadline(),
            None,
            "the remote scope ended before the join"
        );
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let clock = VClock::new();
        assert_eq!(clock.advance(u64::MAX), Ok(u64::MAX));
        assert_eq!(clock.advance(u64::MAX), Ok(u64::MAX));
    }
}
