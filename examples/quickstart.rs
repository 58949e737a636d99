//! Quickstart: allocate balls into bins with and without noisy
//! comparisons, and watch what noise does to the gap.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{GBounded, GMyopic, SigmaNoisyLoad};
use noisy_balance::processes::OneChoice;

fn measure(name: &str, mut process: impl Process, n: usize, m: u64, seed: u64) {
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(seed);
    process.run(&mut state, m, &mut rng);
    println!(
        "{name:<28} gap = {:>6.2}   (max load {}, min load {}, avg {:.1})",
        state.gap(),
        state.max_load(),
        state.min_load(),
        state.average()
    );
}

fn main() {
    let n = 10_000;
    let m = 100 * n as u64;
    println!("allocating m = 100·n = {m} balls into n = {n} bins\n");

    measure("One-Choice", OneChoice::new(), n, m, 42);
    measure("Two-Choice (no noise)", TwoChoice::classic(), n, m, 42);
    measure("g-Bounded, g = 4", GBounded::new(4), n, m, 42);
    measure("g-Bounded, g = 16", GBounded::new(16), n, m, 42);
    measure("g-Myopic-Comp, g = 16", GMyopic::new(16), n, m, 42);
    measure(
        "sigma-Noisy-Load, σ = 16",
        SigmaNoisyLoad::new(16.0),
        n,
        m,
        42,
    );

    println!();
    println!("What you should see (the paper's story):");
    println!(" * One-Choice drifts apart: gap ≈ √((m/n)·ln n) ≈ 30.");
    println!(" * Two-Choice holds the gap at log₂log n ≈ 3-4 — the power of two choices.");
    println!(" * An adversary that can flip comparisons between bins differing by ⩽ g");
    println!("   costs Θ(g + g/log g · log log n): the gap grows with g but stays");
    println!("   *independent of m*.");
    println!(" * Random (myopic) noise is measurably gentler than adversarial noise,");
    println!("   and smooth Gaussian noise is gentler still.");
}
