//! E18, ApproxMC half: the paper's (ε, δ) contract checked as a statistic
//! (`mcf0_bench::contract`). Each grid cell runs the fewest trials that can
//! pass at its δ, so a single failure fails the gate. The DNF grid runs in
//! the default suite; the CNF grid goes through the SAT oracle and its model
//! pool and runs with `--ignored` in release.

use mcf0::counting::{CountingConfig, FormulaInput};
use mcf0_bench::contract::{
    approxmc_trials, clopper_pearson_upper, cnf_inputs, dnf_inputs, fewest_trials, CONFIDENCE, GRID,
};

fn gate(inputs: fn(usize) -> Vec<(FormulaInput, f64)>, epsilon: f64, delta: f64) {
    let thresh = CountingConfig::paper(epsilon, delta).thresh;
    let trials = approxmc_trials(&inputs(thresh), epsilon, delta, fewest_trials(delta));
    assert!(
        trials.holds(),
        "{trials:?}: upper bound {:.3} > δ",
        trials.upper_bound()
    );
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_08_delta_02() {
    gate(dnf_inputs, 0.8, 0.2);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_08_delta_01() {
    gate(dnf_inputs, 0.8, 0.1);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_05_delta_02() {
    gate(dnf_inputs, 0.5, 0.2);
}

#[test]
fn approxmc_dnf_meets_the_contract_at_eps_05_delta_01() {
    gate(dnf_inputs, 0.5, 0.1);
}

#[test]
#[ignore = "the CNF grid takes seconds in release and minutes in debug"]
fn approxmc_cnf_meets_the_contract_on_the_grid() {
    for (epsilon, delta) in GRID {
        gate(cnf_inputs, epsilon, delta);
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
