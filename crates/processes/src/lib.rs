//! Baseline allocation processes.
//!
//! These are the classic processes the paper compares against and composes
//! with (Sections 1–3 and the related-work discussion):
//!
//! * [`OneChoice`] — each ball goes to a single uniformly random bin;
//! * [`DChoice`] — the lesser loaded of `d` uniform samples (Azar et al.);
//! * [`OnePlusBeta`] — the `(1+β)`-process of Peres, Talwar and Wieder:
//!   a Two-Choice step with probability β, a One-Choice step otherwise;
//! * [`MeanThinning`] — place in the first sample if it is underloaded,
//!   otherwise in a fresh random bin (the `Mean-Thinning` process from the
//!   paper's conclusions);
//! * [`TwoThinning`] — threshold-based two-stage allocation;
//! * trivial deciders [`AlwaysFirst`], [`AlwaysLighter`], [`AlwaysHeavier`]
//!   used as building blocks and adversarial baselines.
//!
//! All of them implement [`Process`](balloc_core::Process) from `balloc-core` and can therefore be
//! run by the same harness as the noisy processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dchoice;
mod deciders;
mod graphical;
mod nonuniform;
mod one_choice;
mod one_plus_beta;
mod thinning;

pub use dchoice::DChoice;
pub use deciders::{AlwaysFirst, AlwaysHeavier, AlwaysLighter};
pub use graphical::{GraphicalTwoChoice, Topology};
pub use nonuniform::NonUniformTwoChoice;
pub use one_choice::OneChoice;
pub use one_plus_beta::OnePlusBeta;
pub use thinning::{MeanThinning, TwoThinning};
