//! Core substrate for balanced-allocation (balls-into-bins) simulations.
//!
//! This crate provides the foundation on which the rest of the
//! `noisy-balance` workspace — a reproduction of *"Balanced Allocations with
//! the Choice of Noise"* (Los & Sauerwald, PODC 2022) — is built:
//!
//! * [`LoadState`] — the bin-load vector with O(1) amortized maintenance of
//!   the paper's central quantity, the **gap** `Gap(t) = max_i x_i − t/n`;
//! * [`Rng`] — a deterministic, dependency-free xoshiro256++ generator so
//!   every simulation is reproducible from a single seed;
//! * the process framework ([`Process`], [`Decider`], [`TwoChoice`]) that
//!   mirrors the paper's *"Two-Choice with noise"* formulation: two uniform
//!   samples plus a (possibly adversarial, noisy, or stale) decision
//!   function;
//! * [`probability`] — probability allocation vectors and majorization;
//! * [`stats`] — summary statistics and least-squares fitting.
//!
//! # Quick example
//!
//! ```
//! use balloc_core::{LoadState, Process, Rng, TwoChoice};
//!
//! // Allocate m = 10·n balls into n bins with noise-free Two-Choice.
//! let n = 1_000;
//! let mut state = LoadState::new(n);
//! let mut rng = Rng::from_seed(0xC0FFEE);
//! TwoChoice::classic().run(&mut state, 10 * n as u64, &mut rng);
//!
//! // The gap stays O(log log n) — the "power of two choices".
//! assert!(state.gap() < 6.0);
//! ```
//!
//! Noisy deciders (adversarial comparisons, Gaussian-perturbed loads),
//! delayed/batched information, potential functions, and the experiment
//! harness live in the sibling crates `balloc-noise`, `balloc-potentials`,
//! `balloc-sim`, and `balloc-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod load;
pub mod probability;
pub mod process;
pub mod rng;
pub mod stats;

pub use load::{LoadBatch, LoadState};
pub use process::{Decider, DecisionProbability, PerfectDecider, Process, TieBreak, TwoChoice};
pub use rng::{Rng, SplitMix64};
