//! How strong is an adversary that can only flip *close* comparisons?
//!
//! Scenario (the paper's introduction, question 2): bins may misreport
//! their load by up to ±g/2, or an adversary may outright control the
//! outcome of comparisons between similarly loaded bins (`g-Adv-Comp`).
//! This example pits adversary strategies with the *same* budget `g`
//! against each other and shows the phase transition in `g`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adversarial_comparisons
//! ```

use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{
    AdvComp, CorrectAll, OverloadSeeking, ReverseAll, ReverseWithProbability, UniformRandom,
};

fn gap_with(strategy_name: &str, mut process: impl Process, n: usize, m: u64) -> f64 {
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(99);
    process.run(&mut state, m, &mut rng);
    println!("  {strategy_name:<26} gap = {:.2}", state.gap());
    state.gap()
}

fn main() {
    let n = 5_000;
    let m = 200 * n as u64;
    let g = 12;
    println!("g-Adv-Comp with budget g = {g}, n = {n}, m = {m}:\n");
    println!("adversary strategies, weakest to strongest:");

    let benign = gap_with(
        "CorrectAll (no noise)",
        TwoChoice::new(AdvComp::new(g, CorrectAll)),
        n,
        m,
    );
    gap_with(
        "ReverseWithProbability ¼",
        TwoChoice::new(AdvComp::new(g, ReverseWithProbability::new(0.25))),
        n,
        m,
    );
    gap_with(
        "UniformRandom (g-Myopic)",
        TwoChoice::new(AdvComp::new(g, UniformRandom)),
        n,
        m,
    );
    gap_with(
        "OverloadSeeking",
        TwoChoice::new(AdvComp::new(g, OverloadSeeking)),
        n,
        m,
    );
    let worst = gap_with(
        "ReverseAll (g-Bounded)",
        TwoChoice::new(AdvComp::new(g, ReverseAll)),
        n,
        m,
    );

    println!();
    println!(
        "the strongest adversary costs {:.1}× the noiseless gap —",
        worst / benign.max(0.1)
    );
    println!("yet Theorem 5.12 caps *every* strategy at O(g + log n), independent of m.");

    println!(
        "\nphase transition: gap of g-Bounded as g crosses log n ≈ {:.1}:",
        (n as f64).ln()
    );
    for g in [1u64, 2, 4, 8, 16, 32, 64] {
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(7);
        TwoChoice::new(AdvComp::new(g, ReverseAll)).run(&mut state, m, &mut rng);
        let bar = "#".repeat(state.gap().round() as usize);
        println!("  g = {g:>3} | {bar} {:.1}", state.gap());
    }
    println!("\nbelow log n the growth is sublinear (Θ(g/log g · log log n), Thm 9.2);");
    println!("above log n it turns linear in g (Thm 5.12 + Prop 11.2).");
}
