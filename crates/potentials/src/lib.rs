//! Potential functions for the analysis of balanced allocations with noise.
//!
//! The upper bounds of *"Balanced Allocations with the Choice of Noise"*
//! (Los & Sauerwald, PODC 2022) are driven by an interplay of potential
//! functions over the normalized load vector (see the paper's Appendix C
//! index). This crate implements them all, together with **exact**
//! one-step expected-drop computation so the paper's drop inequalities can
//! be verified empirically:
//!
//! * [`HyperbolicCosine`] — `Γ(γ)` (Eq. 4.1, Theorem 4.3);
//! * [`OffsetHyperbolicCosine`] — `Λ(α, c₄g)` and `V` (Eq. 5.1, Eq. 7.2);
//! * [`AbsoluteValue`] — `Δ` (Eq. 5.2);
//! * [`Quadratic`] — `Υ` (Eq. 5.3, Lemmas 5.2/5.3);
//! * [`SuperExponential`] — `Φ(φ, z)`/`Ψ` (Eq. 6.1, Lemma 8.1);
//! * [`expected_drop`]/[`expected_drop_for_decider`] — exact `E[ΔP | y]`;
//! * [`event_k_holds`] — the event `K` of Section 8;
//! * [`constants`] — the paper's constants (Table C.2);
//! * [`PotentialTracker`] — trajectory recording during runs.
//!
//! # Example: verifying Lemma 5.2 on a live state
//!
//! ```
//! use balloc_core::{LoadState, PerfectDecider, Process, Rng, TieBreak, TwoChoice};
//! use balloc_potentials::{expected_drop_for_decider, AbsoluteValue, Potential, Quadratic};
//!
//! let mut state = LoadState::new(64);
//! let mut rng = Rng::from_seed(3);
//! TwoChoice::classic().run(&mut state, 1_000, &mut rng);
//!
//! let decider = PerfectDecider::new(TieBreak::Random);
//! let drop = expected_drop_for_decider(&Quadratic::new(), &decider, &state);
//! let delta = AbsoluteValue::new().value(&state);
//! // Lemma 5.2: E[ΔΥ] ⩽ −Δ/n + 1.
//! assert!(drop <= -delta / 64.0 + 1.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constants;
mod drop;
mod functions;
mod tracker;

pub use drop::{event_k_holds, expected_drop, expected_drop_for_decider};
pub use functions::{
    AbsoluteValue, HyperbolicCosine, OffsetHyperbolicCosine, Potential, Quadratic, SuperExponential,
};
pub use tracker::PotentialTracker;
