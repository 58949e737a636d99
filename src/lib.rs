//! # noisy-balance
//!
//! A production-quality Rust implementation of the systems studied in
//! *"Balanced Allocations with the Choice of Noise"* (Dimitrios Los and
//! Thomas Sauerwald, PODC 2022): the **Two-Choice** balls-into-bins process
//! under adversarial, probabilistic, delayed, and batched load information.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`](balloc_core) — load state, deterministic RNG, and the
//!   `Two-Choice`-with-noise process framework;
//! * [`processes`](balloc_processes) — baseline processes (`One-Choice`,
//!   `d-Choice`, `(1+β)`);
//! * [`noise`](balloc_noise) — the paper's noise settings (`g-Adv-Comp`,
//!   `g-Bounded`, `g-Myopic-Comp`, `g-Adv-Load`, `ρ-Noisy-Comp`,
//!   `σ-Noisy-Load`, `τ-Delay`, `b-Batch`);
//! * [`potentials`](balloc_potentials) — the paper's potential functions and
//!   exact expected-drop computations;
//! * [`sim`](balloc_sim) — reproducible, parallel experiment running and
//!   reporting;
//! * [`analysis`](balloc_analysis) — the paper's bound formulas and shape
//!   fitting;
//! * [`multicounter`](balloc_multicounter) — the relaxed concurrent
//!   multi-counter application;
//! * [`serve`](balloc_serve) — the sharded allocation serving front-end
//!   (decisions from stale snapshots behind tower-style layers).
//!
//! # Quick start
//!
//! ```
//! use noisy_balance::core::{LoadState, Process, Rng};
//! use noisy_balance::noise::GBounded;
//!
//! // g-Bounded: an adversary flips every comparison between bins whose
//! // loads differ by at most g.
//! let n = 1_000;
//! let mut process = GBounded::new(4);
//! let mut state = LoadState::new(n);
//! let mut rng = Rng::from_seed(7);
//! process.run(&mut state, 100 * n as u64, &mut rng);
//! println!("gap after 100n balls: {}", state.gap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core substrate: load state, RNG, process framework. Re-export of
/// [`balloc_core`].
pub mod core {
    pub use balloc_core::*;
}

/// Baseline allocation processes. Re-export of [`balloc_processes`].
pub mod processes {
    pub use balloc_processes::*;
}

/// Noise settings from the paper. Re-export of [`balloc_noise`].
pub mod noise {
    pub use balloc_noise::*;
}

/// Potential functions and drop verification. Re-export of
/// [`balloc_potentials`].
pub mod potentials {
    pub use balloc_potentials::*;
}

/// Simulation engine. Re-export of [`balloc_sim`].
pub mod sim {
    pub use balloc_sim::*;
}

/// Theory calculators and shape fitting. Re-export of [`balloc_analysis`].
pub mod analysis {
    pub use balloc_analysis::*;
}

/// Concurrent relaxed multi-counter application. Re-export of
/// [`balloc_multicounter`].
pub mod multicounter {
    pub use balloc_multicounter::*;
}

/// Dynamic settings: repeated balls-into-bins and two-choice queueing with
/// stale information. Re-export of [`balloc_dynamic`].
pub mod dynamic {
    pub use balloc_dynamic::*;
}

/// Sharded allocation serving front-end: tower-style layered services
/// deciding against stale snapshots (`b-Batch`/`τ-Delay` as a systems
/// component). Re-export of [`balloc_serve`].
pub mod serve {
    pub use balloc_serve::*;
}

/// TCP serving front-end: vendored-epoll reactor, binary wire protocol,
/// and the closed-loop load generator (request pipelining as `b-Batch`
/// over a real socket). Re-export of [`balloc_net`].
pub mod net {
    pub use balloc_net::*;
}
