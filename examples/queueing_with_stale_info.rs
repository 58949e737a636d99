//! Join-the-shorter-queue with out-of-date queue lengths.
//!
//! The dynamic version of the whole story: jobs arrive at a cluster and
//! join the shorter of two sampled queues, but the lengths they compare
//! are refreshed only every `T` time slots (the *periodic update model* of
//! Mitzenmacher \[39\], which the paper generalizes as the `b-Batch`/
//! `τ-Delay` settings). Watch two-choice go from unbeatable to
//! *worse than random* as the information ages — herding.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example queueing_with_stale_info
//! ```

use noisy_balance::core::Rng;
use noisy_balance::dynamic::{JoinPolicy, Supermarket};

fn measure(policy: JoinPolicy, label: &str, n: usize, slots: u64) {
    let mut market = Supermarket::new(n, 0.75, 0.9, policy);
    let mut rng = Rng::from_seed(2024);
    market.run(slots, &mut rng);
    let m = market.metrics();
    println!(
        "  {label:<26} avg queue = {:>7.3}   mean sojourn = {:>7.2} slots   max queue = {}",
        m.average_queue(n),
        m.mean_sojourn(),
        m.max_queue
    );
}

fn main() {
    let n = 1_000;
    let slots = 6_000;
    println!("{n} servers, arrival rate 0.75/server/slot, service rate 0.9, {slots} slots\n");

    measure(JoinPolicy::Random, "Random (One-Choice)", n, slots);
    measure(JoinPolicy::TwoChoice, "Two-Choice, live info", n, slots);
    for period in [10u64, 100, 1_000] {
        measure(
            JoinPolicy::TwoChoiceStale {
                update_period: period,
            },
            &format!("Two-Choice, stale T={period}"),
            n,
            slots,
        );
    }

    println!();
    println!("Reading the output:");
    println!(" * With live information, two-choice crushes random routing — the");
    println!("   power of two choices in its queueing form.");
    println!(" * Mild staleness costs a constant factor: the paper's batched-setting");
    println!("   theorems (Θ(log n/log((4n/b)·log n)) gap for b ≈ T·λ·n) explain why.");
    println!(" * Very stale information *herds*: every arrival chases the queues that");
    println!("   were short at the last refresh, and two-choice becomes worse than");
    println!("   random — exactly Mitzenmacher's observation that motivated this");
    println!("   entire line of theory.");
}
