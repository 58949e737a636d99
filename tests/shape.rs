//! Statistical shape tests: the measured gaps follow the paper's laws.
//!
//! All tests use fixed seeds and generous margins, so they are
//! deterministic (no flakes) while still being real statistical evidence.

use noisy_balance::analysis::bounds::{adv_comp_upper_linear, batch_gap, one_choice_gap};
use noisy_balance::analysis::fit::{fit_against, is_monotone_nondecreasing};
use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{Batched, GBounded, GMyopic, SigmaNoisyLoad};
use noisy_balance::processes::OneChoice;
use noisy_balance::sim::{repeat, sweep, RunConfig};

#[test]
fn two_choice_gap_independent_of_m() {
    // The heavily loaded case (Berenbrink et al.): the gap at m = 200n
    // matches the gap at m = 20n up to a small constant.
    let n = 4_000;
    let gap_at = |bpb: u64| {
        let results = repeat(TwoChoice::classic, RunConfig::per_bin(n, bpb, 11), 10, 4);
        results.iter().map(|r| r.gap).sum::<f64>() / results.len() as f64
    };
    let g20 = gap_at(20);
    let g200 = gap_at(200);
    assert!(
        (g200 - g20).abs() < 1.5,
        "two-choice gap should not grow with m: {g20} vs {g200}"
    );
    assert!(g200 < 6.0);
}

#[test]
fn one_choice_gap_grows_with_m_like_sqrt() {
    let n = 4_000;
    let gap_at = |bpb: u64| {
        let results = repeat(OneChoice::new, RunConfig::per_bin(n, bpb, 13), 10, 4);
        results.iter().map(|r| r.gap).sum::<f64>() / results.len() as f64
    };
    let g25 = gap_at(25);
    let g100 = gap_at(100);
    // √4 = 2: doubling m four-fold should roughly double the gap.
    let ratio = g100 / g25;
    assert!(
        (1.6..2.6).contains(&ratio),
        "one-choice gap ratio {ratio} should be ≈ 2 (√ scaling)"
    );
}

#[test]
fn fig12_1_shape_bounded_linear_and_dominating() {
    // A miniature Fig. 12.1: g ∈ {2, 6, 10, 14, 18} at n = 2000.
    let n = 2_000;
    let params = [2.0, 6.0, 10.0, 14.0, 18.0];
    let base = RunConfig::per_bin(n, 100, 17);
    let bounded = sweep(&params, |g| GBounded::new(g as u64), base, 10, 4);
    let myopic = sweep(
        &params,
        |g| GMyopic::new(g as u64),
        base.with_seed(18),
        10,
        4,
    );

    let b: Vec<f64> = bounded.iter().map(|p| p.mean_gap).collect();
    let m: Vec<f64> = myopic.iter().map(|p| p.mean_gap).collect();

    // Monotone in g.
    assert!(
        is_monotone_nondecreasing(&b, 0.5),
        "bounded not monotone: {b:?}"
    );
    assert!(
        is_monotone_nondecreasing(&m, 0.8),
        "myopic not monotone: {m:?}"
    );
    // Bounded dominates myopic at medium/large g.
    for i in 2..params.len() {
        assert!(
            b[i] + 0.5 >= m[i],
            "g={}: bounded {} below myopic {}",
            params[i],
            b[i],
            m[i]
        );
    }
    // The large-g regime is close to linear in g (r² of a linear fit).
    let fit = fit_against(&b[1..], &params[1..]);
    assert!(
        fit.matches(0.9),
        "bounded tail should be ~linear in g: slope {} r² {}",
        fit.slope,
        fit.r_squared
    );
    // And stays below a constant multiple of the upper bound term.
    for (i, &g) in params.iter().enumerate() {
        let term = adv_comp_upper_linear(n as u64, g as u64);
        assert!(
            b[i] < 3.0 * term,
            "g={g}: gap {} exceeds 3× upper term {term}",
            b[i]
        );
    }
}

#[test]
fn fig12_2_shape_batch_tracks_one_choice_beyond_n() {
    // A miniature Fig. 12.2 at n = 1000, m = 100n.
    let n = 1_000usize;
    let m = 100 * n as u64;
    let bs = [10u64, 100, 1_000, 10_000, 100_000];
    let mut batch_gaps = Vec::new();
    let mut oc_gaps = Vec::new();
    for (j, &b) in bs.iter().enumerate() {
        let results = repeat(
            || Batched::new(b),
            RunConfig::new(n, m, 19 + j as u64),
            10,
            4,
        );
        batch_gaps.push(results.iter().map(|r| r.gap).sum::<f64>() / results.len() as f64);
        let oc = repeat(OneChoice::new, RunConfig::new(n, b, 119 + j as u64), 10, 4);
        oc_gaps.push(oc.iter().map(|r| r.gap).sum::<f64>() / oc.len() as f64);
    }
    // Batch gap is monotone in b.
    assert!(
        is_monotone_nondecreasing(&batch_gaps, 0.7),
        "batch gaps not monotone: {batch_gaps:?}"
    );
    // For b ⩾ n, b-Batch tracks One-Choice(b) within a constant factor.
    for i in 0..bs.len() {
        if bs[i] >= n as u64 {
            let ratio = batch_gaps[i] / oc_gaps[i];
            assert!(
                (0.4..2.5).contains(&ratio),
                "b={}: batch {} vs one-choice {} (ratio {ratio})",
                bs[i],
                batch_gaps[i],
                oc_gaps[i]
            );
        }
    }
    // For b ≪ n the batch gap sits near the Two-Choice plateau, far below
    // the paper's b = n value.
    assert!(
        batch_gaps[0] < batch_gaps[2],
        "small-b plateau should undercut b=n: {batch_gaps:?}"
    );
}

#[test]
fn batch_gap_at_n_matches_theory_band() {
    // Theorem 10.2 at b = n: measured gap within a small constant factor
    // of log n/log log n.
    let n = 4_096usize;
    let results = repeat(
        || Batched::new(n as u64),
        RunConfig::per_bin(n, 50, 23),
        10,
        4,
    );
    let mean = results.iter().map(|r| r.gap).sum::<f64>() / results.len() as f64;
    let term = batch_gap(n as u64, n as u64);
    let ratio = mean / term;
    assert!(
        (0.3..4.0).contains(&ratio),
        "b=n gap {mean} vs theory term {term} (ratio {ratio})"
    );
}

#[test]
fn sigma_noisy_load_monotone_and_sublinear() {
    let n = 2_000;
    let params = [2.0, 8.0, 32.0];
    let base = RunConfig::per_bin(n, 100, 29);
    let points = sweep(&params, SigmaNoisyLoad::new, base, 10, 4);
    let gaps: Vec<f64> = points.iter().map(|p| p.mean_gap).collect();
    assert!(
        is_monotone_nondecreasing(&gaps, 0.5),
        "not monotone: {gaps:?}"
    );
    // Quadrupling σ should much less than quadruple the gap (sublinear).
    let r1 = gaps[1] / gaps[0];
    let r2 = gaps[2] / gaps[1];
    assert!(r1 < 4.0 && r2 < 4.0, "σ growth too fast: {gaps:?}");
}

#[test]
fn first_batch_equals_one_choice_distribution() {
    // Observation 11.6: Gap(b) of b-Batch equals One-Choice(b)'s gap in
    // distribution. Mean max-loads over seeds must agree.
    let n = 1_000usize;
    let b = 10_000u64;
    let batch = repeat(|| Batched::new(b), RunConfig::new(n, b, 31), 15, 4);
    let one = repeat(OneChoice::new, RunConfig::new(n, b, 131), 15, 4);
    let bm = batch.iter().map(|r| r.max_load as f64).sum::<f64>() / 15.0;
    let om = one.iter().map(|r| r.max_load as f64).sum::<f64>() / 15.0;
    assert!(
        (bm - om).abs() < 2.0,
        "first-batch max {bm} should match one-choice {om}"
    );
    // And both should be in the one_choice_gap theory band.
    let term = one_choice_gap(n as u64, b) + b as f64 / n as f64;
    assert!((bm / term - 1.0).abs() < 0.5, "max {bm} vs theory {term}");
}

#[test]
fn myopic_large_g_at_specific_m_exhibits_lower_bound() {
    // Proposition 11.2(i): at m = ng/2, g-Myopic-Comp has gap ⩾ g/35.
    let n = 2_000usize;
    let g = 16u64;
    let m = n as u64 * g / 2;
    let results = repeat(|| GMyopic::new(g), RunConfig::new(n, m, 37), 10, 4);
    let mean = results.iter().map(|r| r.gap).sum::<f64>() / results.len() as f64;
    assert!(
        mean >= g as f64 / 35.0,
        "lower bound violated: mean gap {mean} < g/35 = {}",
        g as f64 / 35.0
    );
}

#[test]
fn gap_traces_stabilize_not_grow() {
    // Self-stabilization: for g-Bounded the gap trace reaches a plateau —
    // the second half of the run should not drift upward.
    use noisy_balance::sim::{run_traced, Checkpoints};
    let n = 2_000;
    let result = run_traced(
        &mut GBounded::new(8),
        RunConfig::per_bin(n, 200, 41),
        Checkpoints::Linear(10),
    );
    let gaps: Vec<f64> = result.trace.iter().map(|p| p.gap).collect();
    let mid = gaps[gaps.len() / 2];
    let last = *gaps.last().unwrap();
    assert!(
        (last - mid).abs() < 0.6 * mid.max(4.0),
        "gap should plateau: mid {mid}, last {last} ({gaps:?})"
    );
}

#[test]
fn always_heavier_grows_without_stabilizing() {
    // Control: with an unbounded adversary (always heavier) the gap *does*
    // grow with m — confirming the g-window is what buys stability.
    use noisy_balance::processes::AlwaysHeavier;
    let n = 1_000;
    let gap_at = |bpb: u64| {
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(43);
        TwoChoice::new(AlwaysHeavier).run(&mut state, bpb * n as u64, &mut rng);
        state.gap()
    };
    let g10 = gap_at(10);
    let g100 = gap_at(100);
    assert!(
        g100 > 2.0 * g10,
        "unbounded adversary should keep growing: {g10} vs {g100}"
    );
}
