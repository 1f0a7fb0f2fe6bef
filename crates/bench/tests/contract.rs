//! E18: the paper's (ε, δ) contract checked as a statistic
//! (`mcf0_bench::contract`). Each grid cell runs the fewest trials that can
//! pass at its δ, so a single failure fails the gate.
//!
//! Counting half: the ApproxMC and Min-counter DNF grids run in the default
//! suite. ApproxMC's CNF grid (through the SAT oracle and its model pool),
//! the Est counter on DNF and the Min counter on CNF run with `--ignored` in
//! release. Streaming half: `MinimumF0` and `BucketingF0` on planted
//! streams, one cell at F0 = 600 in the default suite and the whole grid at
//! F0 = 2000 with `--ignored`.

use mcf0::counting::{CountingConfig, FormulaInput};
use mcf0::streaming::{BucketingF0, MinimumF0};
use mcf0_bench::contract::{
    clopper_pearson_upper, cnf_inputs, counter_trials, dnf_inputs, fewest_trials, sketch_trials,
    Counter, Trials, CONFIDENCE, GRID,
};

fn assert_holds(trials: Trials) {
    assert!(
        trials.holds(),
        "{trials:?}: upper bound {:.3} > δ",
        trials.upper_bound()
    );
}

fn gate(counter: Counter, inputs: fn(usize) -> Vec<(FormulaInput, f64)>, epsilon: f64, delta: f64) {
    let thresh = CountingConfig::paper(epsilon, delta).thresh;
    let n = fewest_trials(delta);
    assert_holds(counter_trials(counter, &inputs(thresh), epsilon, delta, n));
}

fn sketch_gate(distinct: usize, epsilon: f64, delta: f64) {
    let n = fewest_trials(delta);
    assert_holds(sketch_trials(MinimumF0::new, distinct, epsilon, delta, n));
    assert_holds(sketch_trials(BucketingF0::new, distinct, epsilon, delta, n));
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_08_delta_02() {
    gate(Counter::ApproxMc, dnf_inputs, 0.8, 0.2);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_08_delta_01() {
    gate(Counter::ApproxMc, dnf_inputs, 0.8, 0.1);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_05_delta_02() {
    gate(Counter::ApproxMc, dnf_inputs, 0.5, 0.2);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_05_delta_01() {
    gate(Counter::ApproxMc, dnf_inputs, 0.5, 0.1);
}

#[test]
#[ignore = "the CNF grid takes seconds in release and minutes in debug"]
fn approxmc_cnf_meets_the_contract_on_the_grid() {
    for (epsilon, delta) in GRID {
        gate(Counter::ApproxMc, cnf_inputs, epsilon, delta);
    }
}

#[test]
fn min_counter_dnf_meets_the_contract_at_eps_08_delta_02() {
    gate(Counter::Min, dnf_inputs, 0.8, 0.2);
}

#[test]
fn min_counter_dnf_meets_the_contract_at_eps_08_delta_01() {
    gate(Counter::Min, dnf_inputs, 0.8, 0.1);
}

#[test]
fn min_counter_dnf_meets_the_contract_at_eps_05_delta_02() {
    gate(Counter::Min, dnf_inputs, 0.5, 0.2);
}

#[test]
fn min_counter_dnf_meets_the_contract_at_eps_05_delta_01() {
    gate(Counter::Min, dnf_inputs, 0.5, 0.1);
}

#[test]
#[ignore = "the Est counter's enumerative sketch takes seconds in debug"]
fn est_counter_dnf_meets_the_contract_at_eps_08_delta_02() {
    gate(Counter::Est, dnf_inputs, 0.8, 0.2);
}

#[test]
#[ignore = "the Min counter's CNF prefix searches take seconds in release"]
fn min_counter_cnf_meets_the_contract_at_eps_08_delta_02() {
    gate(Counter::Min, cnf_inputs, 0.8, 0.2);
}

#[test]
fn sketches_meet_the_contract_at_eps_08_delta_02() {
    sketch_gate(600, 0.8, 0.2);
}

#[test]
#[ignore = "the full sketch grid takes seconds in release"]
fn sketches_meet_the_contract_on_the_grid() {
    for (epsilon, delta) in GRID {
        sketch_gate(2000, epsilon, delta);
    }
}

#[test]
fn clopper_pearson_matches_its_closed_forms() {
    // Zero failures: the bound solves (1 − p)^N = 1 − confidence.
    for trials in [1usize, 21, 44, 300] {
        let closed = 1.0 - (1.0 - CONFIDENCE).powf(1.0 / trials as f64);
        assert!((clopper_pearson_upper(0, trials, CONFIDENCE) - closed).abs() < 1e-9);
    }
    assert_eq!(clopper_pearson_upper(7, 7, CONFIDENCE), 1.0);
    // More failures never lower the bound, and it stays above the rate.
    let bounds: Vec<f64> = (0..=10)
        .map(|k| clopper_pearson_upper(k, 50, CONFIDENCE))
        .collect();
    assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    assert!(bounds.iter().enumerate().all(|(k, &b)| b > k as f64 / 50.0));
    assert_eq!((fewest_trials(0.2), fewest_trials(0.1)), (21, 44));
}
