//! Ablation **A8**: the layered-induction structure of Sections 6–9,
//! observed empirically.
//!
//! The proof of the `O(g/log g · log log n)` bound shows that the number
//! of bins with normalized load above the layer offsets
//! `z_j = c₅·g + ⌈4/α₂⌉·j·g` decays *super-exponentially* in `j` (each
//! potential `Φ_j = O(n)` forces the next layer to be thinner). This
//! experiment runs `g-Bounded` to equilibrium and reports, for a ladder of
//! offsets, how many bins exceed each — the staircase the induction climbs.

use balloc_core::rng::run_seed;
use balloc_core::{LoadState, Process, Rng};
use balloc_noise::GBounded;
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct LayerRow {
    offset: f64,
    bins_above_mean: f64,
    fraction: f64,
}

#[derive(Serialize)]
struct LayerDecayArtifact {
    scale: String,
    g: u64,
    rows: Vec<LayerRow>,
    decay_ratios: Vec<f64>,
}

/// `balloc layer_decay` — see the module docs.
pub struct LayerDecay;

impl Experiment for LayerDecay {
    fn id(&self) -> &'static str {
        "layer_decay"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A8 (Sections 6–9)"
    }

    fn description(&self) -> &'static str {
        "super-exponential decay of bins above the layer offsets"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[FlagSpec {
            name: "--g",
            kind: FlagKind::U64,
            positive: true,
            default: "3",
            help: "g-Bounded noise budget",
        }]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A8", "layered-induction staircase", args);

        let g = args.extras.u64("--g");
        let runs = args.runs;
        let n = args.n;
        // Offsets in units of g above the mean: 1g, 2g, ..., 8g.
        let offsets: Vec<f64> = (1..=8).map(|j| (j as u64 * g) as f64).collect();

        let mut counts = vec![0.0f64; offsets.len()];
        let master = experiment_seed("layer_decay", args.seed);
        for r in 0..runs {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(run_seed(master, r as u64));
            GBounded::new(g).run(&mut state, args.m(), &mut rng);
            let avg = state.average();
            for (k, &z) in offsets.iter().enumerate() {
                counts[k] += state
                    .loads()
                    .iter()
                    .filter(|&&x| x as f64 - avg >= z)
                    .count() as f64;
            }
        }
        for c in counts.iter_mut() {
            *c /= runs as f64;
        }

        let mut table = TextTable::new(vec![
            "offset z (above mean)".into(),
            "avg #bins with y >= z".into(),
            "fraction of n".into(),
        ]);
        let mut rows = Vec::new();
        for (k, &z) in offsets.iter().enumerate() {
            table.push_row(vec![
                format!("{}g = {}", k + 1, z),
                fmt3(counts[k]),
                format!("{:.2e}", counts[k] / n as f64),
            ]);
            rows.push(LayerRow {
                offset: z,
                bins_above_mean: counts[k],
                fraction: counts[k] / n as f64,
            });
        }
        sink.table("staircase", table);

        // Decay ratio between consecutive layers: should *increase* (super-
        // exponential decay), not stay constant (plain exponential).
        let mut ratios = Vec::new();
        for k in 0..offsets.len() - 1 {
            if counts[k + 1] > 0.0 {
                ratios.push(counts[k] / counts[k + 1]);
            }
        }
        sink.line(format!(
            "decay ratios between consecutive layers: {:?}",
            ratios.iter().map(|r| fmt3(*r)).collect::<Vec<_>>()
        ));
        let accelerating = ratios.windows(2).filter(|w| w[1] >= w[0] * 0.8).count();
        sink.line(format!(
            "ratios non-decreasing (0.8 slack) at {}/{} steps — super-exponential tail",
            accelerating,
            ratios.len().saturating_sub(1)
        ));

        let artifact = LayerDecayArtifact {
            scale: args.scale_line(),
            g,
            rows,
            decay_ratios: ratios,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
