//! Baseline allocation processes.
//!
//! These are the classic processes the paper compares against and composes
//! with (Sections 1–3 and the related-work discussion):
//!
//! * [`OneChoice`] — each ball goes to a single uniformly random bin;
//! * [`DChoice`] — the lesser loaded of `d` uniform samples (Azar et al.);
//! * [`OnePlusBeta`] — the `(1+β)`-process of Peres, Talwar and Wieder:
//!   a Two-Choice step with probability β, a One-Choice step otherwise;
//! * [`AlwaysHeavier`] — a [`Decider`](balloc_core::Decider) that always
//!   picks the heavier sample, the adversarial extreme of `g-Bounded`.
//!
//! The three processes implement [`Process`](balloc_core::Process) from
//! `balloc-core` and can therefore be run by the same harness as the noisy
//! processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dchoice;
mod deciders;
mod one_choice;
mod one_plus_beta;

pub use dchoice::DChoice;
pub use deciders::AlwaysHeavier;
pub use one_choice::OneChoice;
pub use one_plus_beta::OnePlusBeta;
