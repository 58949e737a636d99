//! Reproducible, parallel simulation harness for balanced-allocation
//! experiments.
//!
//! This crate turns the processes of `balloc-core`/`balloc-noise` into the
//! experiments of the paper's Section 12:
//!
//! * [`RunConfig`] / [`run`] / [`run_traced`] / [`run_on_state`] — a
//!   single seeded run with optional gap traces ([`Checkpoints`]), all
//!   through one driver over each process's batched engine that pauses
//!   only at the requested checkpoints;
//! * [`repeat`] — parallel repetitions with derived per-run seeds
//!   (sequential ≡ parallel, always);
//! * [`repeat_grid`] — many configurations × many repetitions flattened
//!   into one task set on scoped worker threads;
//! * [`sweep`] — one experiment per parameter value (the paper's figure
//!   series), scheduled through [`repeat_grid`];
//! * [`GapDistribution`] — the `gap : percent%` histograms of Tables
//!   12.3/12.4;
//! * [`TextTable`] / [`Report`] / [`OutputSink`] — the single output
//!   layer behind the `balloc` CLI: experiments emit tables and lines
//!   through a sink, and the same emissions render as human text,
//!   `--json`, or `--csv` without per-experiment code.
//!
//! # Seeding contract
//!
//! Every random decision in an experiment is a pure function of a single
//! base seed, derived through two tagged SplitMix64 mixers from
//! `balloc_core::rng`:
//!
//! ```text
//! base seed s ──point_seed(s, j)──▶ point master (parameter index j)
//!            └──────────────────────run_seed(master, i)──▶ run seed
//! ```
//!
//! * [`repeat`] runs repetition `i` with `run_seed(base.seed, i)`.
//! * [`sweep`] gives parameter index `j` the master `point_seed(base.seed,
//!   j)`, then derives run seeds as above — so two sweeps with *nearby*
//!   base seeds (even `s` and `s + 1`) share **no** run seeds, and the two
//!   derivation layers can never alias each other (distinct domain tags).
//! * Scheduling is seed-free: the thread count only chooses *where* a
//!   task runs. Results are byte-identical to `threads = 1` for
//!   every thread count.
//!
//! # Example: a miniature Fig. 12.1 point
//!
//! ```
//! use balloc_noise::GBounded;
//! use balloc_sim::{repeat, GapDistribution, RunConfig};
//!
//! let results = repeat(
//!     || GBounded::new(4),
//!     RunConfig::per_bin(500, 50, 42),
//!     10,
//!     2,
//! );
//! let dist = GapDistribution::from_results(&results);
//! println!("{dist}"); // e.g. "6 : 30%\n7 : 50%\n8 : 20%"
//! assert_eq!(dist.total(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod distribution;
pub mod initial;
mod report;
mod runner;
mod schedule;
mod sweep;

pub use config::{Checkpoints, RunConfig};
pub use distribution::GapDistribution;
pub use report::{csv_escape, to_json, Block, OutputMode, OutputSink, Report, TextTable};
pub use runner::{gaps, repeat, repeat_grid, run, run_on_state, run_traced, RunResult, TracePoint};
pub use schedule::ArrivalSchedule;
pub use sweep::{series, sweep, SweepPoint};
