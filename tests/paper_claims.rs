//! The paper's claims, asserted on the figures that print them.
//!
//! Each test calls a figure function of `flux_bench::figures` at quick
//! scale on three seeds and asserts the *direction* of one claim the paper
//! makes, reading cells by column name. Every quantity read is simulated
//! (scores, simulated hours, errors, phase shares), never wall-clock, so the
//! suite is deterministic and host-independent. Each test states its rule:
//! the claim holds on every seed (and every dataset), or on a majority of
//! cells with a margin.
//!
//! A claim that quick scale does not reproduce is a finding: its test is
//! `#[ignore]`d with the numbers measured, not deleted or weakened;
//! `cargo test --release --test paper_claims -- --ignored` runs them.

use flux_bench::{figures, Family, Scale, Table, EXPERIMENT_SEED};
use flux_data::DatasetKind;

const QUICK: Scale = Scale::Quick;

/// Three seeds far enough apart that no figure's per-dataset streams
/// (`seed + dataset`) overlap between them.
const SEEDS: [u64; 3] = [
    EXPERIMENT_SEED,
    EXPERIMENT_SEED + 100,
    EXPERIMENT_SEED + 200,
];

/// The number in `row` under `column`, which every measured cell has.
fn num(table: &Table, row: usize, column: &str) -> f64 {
    table
        .num(row, column)
        .unwrap_or_else(|| panic!("{}: row {row} has no {column:?}", table.title))
}

/// The mean of `column` over every row.
fn column_mean(table: &Table, column: &str) -> f64 {
    let n = table.num_rows();
    (0..n).map(|row| num(table, row, column)).sum::<f64>() / n as f64
}

/// Whether `contender` reached the target and no rival reached it earlier
/// (`None`: never reached).
fn first_to_target(contender: Option<f64>, rivals: &[Option<f64>]) -> bool {
    contender.is_some_and(|hours| rivals.iter().flatten().all(|&rival| hours <= rival))
}

/// Fig. 5: quantized profiling's estimation error does not grow with the
/// bit width. Rule: every seed, every dataset.
#[test]
fn fig05_profiling_error_falls_with_bit_width() {
    for seed in SEEDS {
        let table = &figures::quant_profiling_error(QUICK, seed)[0];
        for row in 0..table.num_rows() {
            let errors = ["bit-2", "bit-4", "bit-8"].map(|column| num(table, row, column));
            assert!(
                errors[0] >= errors[1] && errors[1] >= errors[2],
                "seed {seed}, {}: error % at 2/4/8 bits {errors:?}",
                table.cell(row, "Dataset")
            );
        }
    }
}

/// Fig. 6: activation frequencies drift little from one round to the next,
/// which is what makes a one-round-stale profile usable. Rule: every seed,
/// at least half of all per-round changes are under half a percentage
/// point and three quarters under two.
#[test]
fn fig06_activation_drift_between_rounds_is_small() {
    for seed in SEEDS {
        let cdf = &figures::activation_drift(QUICK, seed)[1];
        let share_below = |points: f64| {
            let row = (0..cdf.num_rows())
                .find(|&row| num(cdf, row, "Change") == points)
                .expect("the CDF is read at this change");
            num(cdf, row, "CDF")
        };
        let (half, two) = (share_below(0.5), share_below(2.0));
        assert!(
            half >= 0.5 && two >= 0.75,
            "seed {seed}: share of changes under 0.5 / 2 points = {half:.3} / {two:.3}"
        );
    }
}

/// Fig. 8: merging an early layer's experts costs more output error than
/// merging a later one's, because the error travels through every layer
/// after it. Rule: every seed and dataset, the error falls strictly with
/// the merged layer's depth.
#[test]
fn fig08_merge_error_falls_with_depth() {
    for seed in SEEDS {
        for table in figures::layer_merge_error(QUICK, seed) {
            let column = "Output error (cosine distance)";
            let errors: Vec<f64> = (0..table.num_rows())
                .map(|r| num(&table, r, column))
                .collect();
            assert!(
                errors.len() >= 3 && errors.windows(2).all(|pair| pair[0] > pair[1]),
                "seed {seed}, {}: errors by depth {errors:?}",
                table.title
            );
        }
    }
}

/// Fig. 14a: a profile one training step stale estimates the current
/// model's activations nearly as well as a fresh one. The paper's errors
/// are ~10 % and stale adds under 2 points; 2-bit errors of the quick
/// model are ~50–130 %, so the rule is relative. Rule: every seed, the
/// stale error averaged over the four datasets exceeds the fresh one by
/// under 5 %.
#[test]
fn fig14a_stale_profiles_stay_close_to_fresh_ones() {
    for seed in SEEDS {
        let table = figures::stale_profiling_error(QUICK, seed);
        let fresh = column_mean(&table, "fresh profile (%)");
        let stale = column_mean(&table, "stale profile (%)");
        assert!(
            stale < fresh * 1.05,
            "seed {seed}: mean error fresh {fresh:.3} % vs stale {stale:.3} %"
        );
    }
}

/// Fig. 15a: merging each layer's non-tuning experts into a single expert
/// loses the most output; spreading the same budget over the layers
/// (uniformly or adaptively) loses less. Rule: every seed, the error
/// averaged over the four datasets is larger for `single` than for either
/// split.
#[test]
fn fig15a_one_merged_expert_per_layer_errs_most() {
    for seed in SEEDS {
        let table = figures::budget_output_error(QUICK, seed);
        let [single, uniform, adaptive] =
            ["single", "uniform", "adaptive"].map(|column| column_mean(&table, column));
        assert!(
            single > uniform && single > adaptive,
            "seed {seed}: mean error single {single:.4}, uniform {uniform:.4}, adaptive {adaptive:.4}"
        );
    }
}

/// Fig. 15a: Flux's adaptive per-layer budget (Eq. 1) beats a uniform
/// split. Rule: every seed, lower error averaged over the four datasets.
#[test]
#[ignore = "not at quick scale: mean error adaptive vs uniform 0.0154 vs 0.0116, 0.0395 vs 0.0406, 0.0533 vs 0.0621 on the three seeds"]
fn fig15a_adaptive_budgets_beat_uniform_ones() {
    let means: Vec<[f64; 2]> = SEEDS
        .map(|seed| {
            let table = figures::budget_output_error(QUICK, seed);
            ["adaptive", "uniform"].map(|column| column_mean(&table, column))
        })
        .to_vec();
    assert!(
        means.iter().all(|[adaptive, uniform]| adaptive < uniform),
        "mean error [adaptive, uniform] per seed: {means:?}"
    );
}

/// Fig. 17a: weighting the merge (by frequency, or by attention and
/// frequency) loses less output than plain averaging. Rule: every seed,
/// both weighted strategies have a lower error averaged over the four
/// datasets than `avg`.
#[test]
fn fig17a_weighted_merging_beats_plain_averaging() {
    for seed in SEEDS {
        let table = figures::strategy_output_error(QUICK, seed);
        let [avg, freq, att_freq] = ["avg", "weighted(freq)", "weighted(att+freq)"]
            .map(|column| column_mean(&table, column));
        assert!(
            freq < avg && att_freq < avg,
            "seed {seed}: mean error avg {avg:.4}, freq {freq:.4}, att+freq {att_freq:.4}"
        );
    }
}

/// Fig. 17a: adding attention to the merge weights (Eq. 2) beats
/// frequency alone. Rule: every seed, no higher error averaged over the
/// four datasets.
#[test]
#[ignore = "not at quick scale: mean error att+freq vs freq 0.0181 vs 0.0141, 0.0239 vs 0.0229, 0.0708 vs 0.0717 on the three seeds"]
fn fig17a_attention_weighting_beats_frequency_alone() {
    let means: Vec<[f64; 2]> = SEEDS
        .map(|seed| {
            let table = figures::strategy_output_error(QUICK, seed);
            ["weighted(att+freq)", "weighted(freq)"].map(|column| column_mean(&table, column))
        })
        .to_vec();
    assert!(
        means.iter().all(|[att_freq, freq]| att_freq <= freq),
        "mean error [att+freq, freq] per seed: {means:?}"
    );
}

/// Fig. 3: keeping non-tuning experts merged beats discarding them. Rule:
/// a majority of seeds end with a higher keep score.
#[test]
#[ignore = "not at quick scale: final keep vs discard score 0.075 vs 0.075, 0.106 vs 0.150, 0.188 vs 0.156 on the three seeds"]
fn fig03_keeping_non_tuning_experts_beats_discarding_them() {
    let mut finals = Vec::new();
    for seed in SEEDS {
        let table = &figures::discard_vs_keep(QUICK, seed)[0];
        let last = table.num_rows() - 1;
        finals.push((
            num(table, last, "Keep (merged)"),
            num(table, last, "Discard"),
        ));
    }
    let keep_wins = finals
        .iter()
        .filter(|(keep, discard)| keep > discard)
        .count();
    assert!(
        keep_wins * 2 > SEEDS.len(),
        "final (keep, discard) per seed: {finals:?}"
    );
}

/// Fig. 19: the dynamic ε schedule reaches the calibrated target no later
/// than either fixed ε. Rule: every seed and dataset.
#[test]
#[ignore = "not at quick scale: dynamic eps is first (ties count) in 4 of 12 seed x dataset panels, fixed eps=0.3 in 7"]
fn fig19_dynamic_epsilon_reaches_the_target_no_later_than_fixed_values() {
    let mut misses = Vec::new();
    for seed in SEEDS {
        for table in figures::dynamic_epsilon(QUICK, seed) {
            let column = "Time to 90% of best (h)";
            let [low, high, dynamic] = [0, 1, 2].map(|row| table.num(row, column));
            if !first_to_target(dynamic, &[low, high]) {
                misses.push(format!(
                    "seed {seed}, {}: {low:?} / {high:?} / {dynamic:?}",
                    table.title
                ));
            }
        }
    }
    assert!(
        misses.is_empty(),
        "eps=0.3 / eps=0.7 / dynamic hours:\n{}",
        misses.join("\n")
    );
}

/// Fig. 20: profiling, merging and role assignment together cost less
/// simulated time than the fine-tuning they serve. Rule: every seed and
/// dataset.
#[test]
fn fig20_flux_phases_cost_less_than_fine_tuning() {
    for seed in SEEDS {
        let table = &figures::overhead_breakdown(QUICK, seed)[0];
        for row in 0..table.num_rows() {
            let overhead: f64 = ["Profiling %", "Merging %", "Assignment %"]
                .iter()
                .map(|column| num(table, row, column))
                .sum();
            let fine_tuning = num(table, row, "Fine-tuning %");
            assert!(
                overhead < fine_tuning,
                "seed {seed}, {}: Flux phases {overhead:.3} % vs fine-tuning {fine_tuning:.3} %",
                table.cell(row, "Dataset")
            );
        }
    }
}

/// Fig. 10: on LLaMA-MoE, Flux converges to the calibrated target before
/// FMD, FMQ and FMES. Rule: majority plus margin, see
/// [`assert_flux_first_share`].
#[test]
#[ignore = "not at quick scale: Flux first in 5 of 12 panels (needs 8)"]
fn fig10_flux_converges_first_on_llama_moe() {
    assert_flux_first_share(&convergence_cells(Family::Llama));
}

/// Fig. 11: the same on DeepSeek-MoE.
#[test]
#[ignore = "not at quick scale: Flux first in 7 of 12 panels (needs 8)"]
fn fig11_flux_converges_first_on_deepseek_moe() {
    assert_flux_first_share(&convergence_cells(Family::DeepSeek));
}

/// Fig. 12: on LLaMA-MoE, Flux reaches the calibrated target before FMD,
/// FMQ and FMES at every fleet size. Rule: majority plus margin, see
/// [`assert_flux_first_share`].
#[test]
fn fig12_flux_reaches_the_target_first_at_every_fleet_size_on_llama_moe() {
    assert_flux_first_share(&scalability_cells(Family::Llama));
}

/// Fig. 13: the same on DeepSeek-MoE.
#[test]
#[ignore = "not at quick scale: Flux first in 13 of 24 cells (needs 15)"]
fn fig13_flux_reaches_the_target_first_at_every_fleet_size_on_deepseek_moe() {
    assert_flux_first_share(&scalability_cells(Family::DeepSeek));
}

/// The headline rule, majority plus margin: Flux reaches the target first
/// (ties count) in at least 60 % of `cells`, each a method's simulated
/// hours to the target in FMD, FMQ, FMES, FLUX order.
fn assert_flux_first_share(cells: &[[Option<f64>; 4]]) {
    let first = cells
        .iter()
        .filter(|[fmd, fmq, fmes, flux]| first_to_target(*flux, &[*fmd, *fmq, *fmes]))
        .count();
    assert!(
        first * 10 >= cells.len() * 6,
        "Flux first in {first} of {} cells",
        cells.len()
    );
}

/// One cell per seed × dataset convergence panel: each method's hours to
/// 90 % of the best score any method in the panel reaches.
fn convergence_cells(family: Family) -> Vec<[Option<f64>; 4]> {
    let mut cells = Vec::new();
    for seed in SEEDS {
        for kind in DatasetKind::all() {
            let table = figures::convergence_on(family, kind, QUICK, seed);
            let rows = 0..table.num_rows();
            let score = |row| num(&table, row, "Score") as f32;
            let best = rows.clone().map(score).fold(0.0f32, f32::max);
            cells.push(["FMD", "FMQ", "FMES", "FLUX"].map(|method| {
                rows.clone()
                    .find(|&row| {
                        table.cell(row, "Method").to_string() == method && score(row) >= best * 0.9
                    })
                    .map(|row| num(&table, row, "Elapsed (h)"))
            }));
        }
    }
    cells
}

/// One cell per seed × dataset × participant count of the scalability
/// panels.
fn scalability_cells(family: Family) -> Vec<[Option<f64>; 4]> {
    let mut cells = Vec::new();
    for seed in SEEDS {
        for kind in DatasetKind::all() {
            let table = figures::scalability_on(family, kind, QUICK, seed);
            for row in 0..table.num_rows() {
                cells.push(
                    ["FMD (h)", "FMQ (h)", "FMES (h)", "FLUX (h)"].map(|c| table.num(row, c)),
                );
            }
        }
    }
    cells
}
