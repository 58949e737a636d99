//! The serving layer's one deterministic virtual clock, with a deadline
//! register.
//!
//! Wall clocks would make every latency percentile and every
//! circuit-breaker transition non-reproducible, so serving time is a
//! [`VClock`]: a monotone tick counter shared by clones, advanced
//! explicitly by whoever "spends" time. An engine keeps two: the
//! staleness clock of [`SnapshotService`](crate::SnapshotService), one
//! [`tick`](VClock::tick) per completed request (the "slots" unit of
//! [`Staleness::Delay`](crate::Staleness::Delay)), and the middleware's
//! clock, [`advance`](VClock::advance)d by the backend and the engine's
//! inter-arrival spacing.
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
//! Every engine serves on one thread, so the registers are plain cells.
//!
//! # Examples
//!
//! ```
//! use balloc_serve::VClock;
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

use std::cell::Cell;
use std::rc::Rc;

/// Cutoff register value meaning "no deadline is active".
const NO_CUTOFF: u64 = u64::MAX;

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
    now: Cell<u64>,
    /// Minimum deadline (absolute tick) over the open scopes, or
    /// [`NO_CUTOFF`].
    cutoff: Cell<u64>,
    /// The tick the last refused advance *would* have completed at.
    overrun: Cell<Option<u64>>,
}

/// A shared deterministic virtual clock (see the module docs).
///
/// Cheap to clone: clones share the same counter and deadline register,
/// so every layer of a service stack (and every worker of an engine)
/// observes the same time.
#[derive(Debug, Clone)]
pub struct VClock {
    regs: Rc<Registers>,
}

/// The staleness clock of [`SnapshotService`](crate::SnapshotService):
/// the same [`VClock`], named for the completed-request count it keeps.
pub type ServeClock = VClock;

impl Default for VClock {
    fn default() -> Self {
        Self {
            regs: Rc::new(Registers {
                now: Cell::new(0),
                cutoff: Cell::new(NO_CUTOFF),
                overrun: Cell::new(None),
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
        self.regs.now.get()
    }

    /// Records one completed request: one tick, whatever the cutoff. The
    /// staleness clock counts requests and never opens a deadline scope.
    pub fn tick(&self) {
        self.regs.now.set(self.now() + 1);
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
        let now = self.now();
        let target = now.saturating_add(ticks);
        let cutoff = self.regs.cutoff.get();
        if target > cutoff {
            self.regs.overrun.set(Some(target));
            self.regs.now.set(now.max(cutoff));
            return Err(DeadlineExpired);
        }
        self.regs.now.set(target);
        Ok(target)
    }

    /// Opens a deadline scope at absolute tick `at`: until the returned
    /// guard drops, [`advance`](Self::advance) refuses to cross
    /// `min(at, the cutoff of any enclosing scope)`.
    ///
    /// Scopes must end in the reverse order they were opened, which
    /// lexical scoping gives for free.
    pub fn deadline_scope(&self, at: u64) -> DeadlineScope<'_> {
        let prev = self.regs.cutoff.replace(self.regs.cutoff.get().min(at));
        DeadlineScope { clock: self, prev }
    }

    /// The active cutoff, if any scope is open.
    #[must_use]
    pub fn deadline(&self) -> Option<u64> {
        Some(self.regs.cutoff.get()).filter(|&c| c != NO_CUTOFF)
    }

    /// The tick the last refused [`advance`](Self::advance) would have
    /// completed at — the "how late would it have been" input to hedging
    /// regret accounting. `None` until the first refusal.
    #[must_use]
    pub fn last_overrun(&self) -> Option<u64> {
        self.regs.overrun.get()
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
        self.clock.regs.cutoff.set(self.prev);
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
    fn tick_counts_one_request_past_any_cutoff() {
        let clock = VClock::new();
        let _scope = clock.deadline_scope(1);
        for _ in 0..3 {
            clock.tick();
        }
        assert_eq!(clock.now(), 3);
        assert_eq!(clock.last_overrun(), None, "a tick is never refused");
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
    fn saturates_instead_of_wrapping() {
        let clock = VClock::new();
        assert_eq!(clock.advance(u64::MAX), Ok(u64::MAX));
        assert_eq!(clock.advance(u64::MAX), Ok(u64::MAX));
    }
}
