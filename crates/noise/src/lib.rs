//! Noise settings for balanced allocations — the heart of the paper.
//!
//! *"Balanced Allocations with the Choice of Noise"* (Los & Sauerwald,
//! PODC 2022) studies `Two-Choice` when load comparisons are unreliable.
//! This crate implements every setting of the paper's Section 2 framework:
//!
//! | Type | Paper setting |
//! |------|---------------|
//! | [`AdvComp`] + [`CompStrategy`] | `g-Adv-Comp` — adaptive adversary controls comparisons within load difference `g` |
//! | [`GBounded`]                   | `g-Bounded` — every window comparison reversed |
//! | [`GMyopic`]                    | `g-Myopic-Comp` — window comparisons are coin flips |
//! | [`AdvLoad`]                    | `g-Adv-Load` — loads reported within `±g` |
//! | [`NoisyComp`] + [`rho`]        | `ρ-Noisy-Comp` — comparison correct with probability `ρ(δ)` |
//! | [`SigmaNoisyLoad`]             | `σ-Noisy-Load` — Gaussian noise, Eq. (2.1) |
//! | [`GaussianLoadDecider`]        | `σ-Noisy-Load` — literal Gaussian perturbation model |
//! | [`Delayed`]                    | `τ-Delay` — estimates from a sliding window of the last `τ` steps |
//! | [`Batched`]                    | `b-Batch` — loads frozen at batch boundaries |
//! | [`LoadCorruptor`]              | `g-Adv-Load` as a *fault model* — seeded per-shard `±g` report corruption for the serving layer |
//!
//! # Example: the phase transition in `g`
//!
//! ```
//! use balloc_core::{LoadState, Process, Rng};
//! use balloc_noise::GBounded;
//!
//! let n = 1_000;
//! let m = 50 * n as u64;
//! let mut gaps = Vec::new();
//! for g in [0u64, 4, 16] {
//!     let mut state = LoadState::new(n);
//!     let mut rng = Rng::from_seed(1);
//!     GBounded::new(g).run(&mut state, m, &mut rng);
//!     gaps.push(state.gap());
//! }
//! // The gap increases with the adversary's budget g.
//! assert!(gaps[0] < gaps[1] && gaps[1] < gaps[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adv_comp;
mod adv_load;
mod batch;
mod delay;
mod fault;
mod noisy_comp;
pub mod rho;
pub mod strategies;

pub use adv_comp::{AdvComp, GBounded, GMyopic};
pub use adv_load::{AdvLoad, PerturbStrategy};
pub use batch::Batched;
pub use delay::{DelayStrategy, Delayed};
pub use fault::{CorruptKind, LoadCorruptor};
pub use noisy_comp::{GaussianLoadDecider, NoisyComp, SigmaNoisyLoad};
pub use rho::{BoundedRho, ConstantRho, GaussianRho, MyopicRho, RhoFunction};
pub use strategies::{
    CompStrategy, CompStrategyProbability, CorrectAll, FixedRule, OverloadSeeking, ReverseAll,
    ReverseWithProbability, UniformRandom,
};
