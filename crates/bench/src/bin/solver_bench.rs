//! Solver benchmark harness: seeded regression instances for the CNF-XOR
//! oracle stack, with wall-clock, oracle-call, and CDCL-work accounting.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mcf0-bench --bin solver_bench             # print table
//! cargo run --release -p mcf0-bench --bin solver_bench -- --check  # fail on call-count drift
//! cargo run --release -p mcf0-bench --bin solver_bench -- --heavy  # + large-n workloads
//! cargo run --release -p mcf0-bench --bin solver_bench -- --write  # rewrite BENCH_solver.json
//! ```
//!
//! The oracle-call counts on these instances are pinned: the paper's
//! complexity accounting is in terms of NP-oracle calls, so a solver change
//! must not alter how many queries the counting algorithms issue (only how
//! fast each query runs). `--check` exits non-zero if any count drifts.
//! ApproxMC's rows are pinned by [`APPROXMC_PINS`], the counts with its
//! model pool; the baselines keep the plain algorithm's counts, and no pin
//! may exceed its baseline.
//! Wall-clock numbers are informational; `BENCH_solver.json` records the
//! trajectory across PRs (the `seed_baseline` block holds the pre-rewrite
//! numbers of the naive DPLL solver, the `chrono_baseline` block the
//! chronological engine's numbers on the large-`n` workloads the CDCL
//! engine unlocked — `timed_out: true` rows record the cap at which the
//! chronological run was abandoned, so the wall column is a floor).
//!
//! The large-`n` workloads (`--heavy`, part of the CI `--check --heavy`
//! step) are sized so the CDCL engine finishes in well under a second while
//! the chronological engine needs minutes to forever; `findmin_cnf_n40`
//! stays in the default set as the always-on evidence of the CDCL win
//! (0.03 s vs 20 s).

use mcf0::counting::est_based::EstBackend;
use mcf0::counting::{
    approx_mc_on_oracle, approx_model_count_est, approx_model_count_min, CountingConfig,
    FormulaInput, LevelSearch,
};
use mcf0::formula::generators::random_k_cnf;
use mcf0::formula::{Clause, CnfFormula, Literal};
use mcf0::hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0::sat::{find_max_range_cnf, find_min_cnf, SatOracle, SolutionOracle, SolverStats};
use mcf0_bench::bench_dnf;
use serde::Serialize;
use std::time::Instant;

/// One measured regression instance.
#[derive(Clone, Debug, Serialize)]
struct InstanceResult {
    /// Instance name.
    name: String,
    /// Wall-clock milliseconds for one run (release).
    wall_ms: f64,
    /// NP-oracle calls issued (0 for oracle-free paths).
    oracle_calls: u64,
    /// The estimate or statistic the instance produced (for sanity).
    value: f64,
    /// CDCL conflicts analysed (0 for oracle-free paths).
    conflicts: u64,
    /// CDCL clauses learned (0 for oracle-free paths).
    learned: u64,
    /// CDCL restarts (0 for oracle-free paths).
    restarts: u64,
}

/// Per-instance numbers measured at the seed revision (the naive recursive
/// DPLL solver, release profile): `(name, wall_ms, oracle_calls)`. The
/// wall-clock column is informational history for the JSON report; the
/// oracle-call column is the **pinned accounting** `--check` enforces — a
/// solver change must keep every count identical (the paper's complexity
/// claims are stated in oracle calls); only wall-clock may change.
const SEED_BASELINE: &[(&str, f64, u64)] = &[
    ("approxmc_cnf_linear", 5.23, 356),
    ("approxmc_cnf_galloping", 5.15, 356),
    ("approxmc_cnf_blocking", 4251.20, 230),
    ("findmin_cnf", 0.29, 107),
    ("findmaxrange_cnf", 0.03, 5),
    ("est_enumerative_dnf", 1548.66, 0),
    ("min_counter_cnf", 28.36, 4889),
];

/// The large-`n` workloads with the chronological engine's wall-clock as
/// the baseline: `(name, chrono_wall_ms, chrono_timed_out, oracle_calls)`.
/// A `true` flag means the chronological run was killed at that wall-clock
/// cap without finishing — the CDCL engine is the first engine in this
/// workspace to complete the workload at all. Oracle-call counts are pinned
/// exactly like the seed table (`findmin_cnf_n40`'s chronological run
/// finished and issued the identical 1148 calls — the accounting is
/// engine-independent).
const CHRONO_BASELINE: &[(&str, f64, bool, u64)] = &[
    ("findmin_cnf_n40", 20430.07, false, 1148),
    ("findmaxrange_cnf_n56", 300000.0, true, 7),
    ("findmin_cnf_n48", 300000.0, true, 1375),
    ("approxmc_cnf_n44", 435988.57, false, 1014),
];

/// ApproxMC's pinned oracle calls with the model pool (DESIGN.md §4), which
/// answers some level probes from models already found and enumerates only
/// the rest of the others: `(name, oracle_calls)`. They replace the baseline
/// figures of the same rows in `--check`, and each must stay at or under
/// that figure (`approxmc_pins_never_exceed_their_baselines`).
const APPROXMC_PINS: &[(&str, u64)] = &[
    ("approxmc_cnf_linear", 162),
    ("approxmc_cnf_galloping", 162),
    ("approxmc_cnf_blocking", 140),
    ("approxmc_cnf_n44", 556),
];

/// The baseline oracle calls of every pinned instance, seed table first.
fn baseline_calls() -> impl Iterator<Item = (&'static str, u64)> {
    SEED_BASELINE
        .iter()
        .map(|&(name, _, calls)| (name, calls))
        .chain(
            CHRONO_BASELINE
                .iter()
                .map(|&(name, _, _, calls)| (name, calls)),
        )
}

/// The oracle calls `--check` expects of every pinned instance.
fn pinned_calls() -> impl Iterator<Item = (&'static str, u64)> {
    baseline_calls().map(|(name, calls)| {
        let pin = APPROXMC_PINS.iter().find(|&&(pinned, _)| pinned == name);
        (name, pin.map_or(calls, |&(_, pin)| pin))
    })
}

/// The planted blocking CNF from the end-to-end suite: n = 12, 45 solutions,
/// one blocking clause per non-solution (~4051 clauses). This is the
/// worst-case clause-store workload for the solver.
fn blocking_cnf(n: usize, solutions: usize) -> CnfFormula {
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    let (dnf, _) = mcf0::formula::generators::planted_dnf(&mut rng, n, solutions);
    let mut clauses = Vec::new();
    for value in 0..(1u64 << n) {
        let mut a = mcf0::gf2::BitVec::zeros(n);
        for i in 0..n {
            a.set(i, (value >> i) & 1 == 1);
        }
        if !dnf.eval(&a) {
            let lits = (0..n)
                .map(|i| {
                    if a.get(i) {
                        Literal::negative(i)
                    } else {
                        Literal::positive(i)
                    }
                })
                .collect();
            clauses.push(Clause::new(lits));
        }
    }
    CnfFormula::new(n, clauses)
}

struct Recorder {
    out: Vec<InstanceResult>,
}

impl Recorder {
    fn record(&mut self, name: &str, wall_ms: f64, oracle_calls: u64, value: f64) {
        self.record_with_stats(name, wall_ms, oracle_calls, value, SolverStats::default());
    }

    fn record_with_stats(
        &mut self,
        name: &str,
        wall_ms: f64,
        oracle_calls: u64,
        value: f64,
        stats: SolverStats,
    ) {
        self.out.push(InstanceResult {
            name: name.to_string(),
            wall_ms,
            oracle_calls,
            value,
            conflicts: stats.conflicts,
            learned: stats.learned_clauses,
            restarts: stats.restarts,
        });
    }
}

fn run_instances(heavy: bool) -> Vec<InstanceResult> {
    let mut rec = Recorder { out: Vec::new() };

    // ApproxMC on a random 3-CNF, both level-search policies (run on an
    // explicit oracle so the solver's work counters reach the report).
    let mut cnf_rng = Xoshiro256StarStar::seed_from_u64(8);
    let cnf = random_k_cnf(&mut cnf_rng, 10, 20, 3);
    let config = CountingConfig::explicit(0.8, 0.3, 40, 3);
    for (name, search) in [
        ("approxmc_cnf_linear", LevelSearch::Linear),
        ("approxmc_cnf_galloping", LevelSearch::Galloping),
    ] {
        let input = FormulaInput::Cnf(cnf.clone());
        let mut oracle = SatOracle::new(cnf.clone());
        let start = Instant::now();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let result = approx_mc_on_oracle(
            &input,
            &config,
            search,
            &mut rng,
            |rng| ToeplitzHash::sample(rng, 10, 10),
            Some(&mut oracle as &mut dyn SolutionOracle),
        );
        rec.record_with_stats(
            name,
            start.elapsed().as_secs_f64() * 1e3,
            result.oracle_calls,
            result.estimate,
            oracle.solver_stats(),
        );
    }

    // ApproxMC on the blocking-clause-heavy planted CNF (the end-to-end
    // suite's dominant workload).
    {
        let cnf = blocking_cnf(12, 45);
        let input = FormulaInput::Cnf(cnf.clone());
        let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
        let mut oracle = SatOracle::new(cnf);
        let start = Instant::now();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let result = approx_mc_on_oracle(
            &input,
            &config,
            LevelSearch::Galloping,
            &mut rng,
            |rng| ToeplitzHash::sample(rng, 12, 12),
            Some(&mut oracle as &mut dyn SolutionOracle),
        );
        rec.record_with_stats(
            "approxmc_cnf_blocking",
            start.elapsed().as_secs_f64() * 1e3,
            result.oracle_calls,
            result.estimate,
            oracle.solver_stats(),
        );
    }

    // FindMin prefix search (the Minimum counter's oracle pattern).
    {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let f = random_k_cnf(&mut rng, 8, 10, 3);
        let h = ToeplitzHash::sample(&mut rng, 8, 10);
        let mut oracle = SatOracle::new(f);
        let start = Instant::now();
        let minima = find_min_cnf(&mut oracle, &h, 16);
        rec.record_with_stats(
            "findmin_cnf",
            start.elapsed().as_secs_f64() * 1e3,
            oracle.stats().sat_calls,
            minima.len() as f64,
            oracle.solver_stats(),
        );
    }

    // FindMaxRange binary search (the Estimation counter's oracle pattern).
    {
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let f = random_k_cnf(&mut rng, 10, 12, 3);
        let h = ToeplitzHash::sample(&mut rng, 10, 10);
        let mut oracle = SatOracle::new(f);
        let start = Instant::now();
        let max_tz = find_max_range_cnf(&mut oracle, &h);
        rec.record_with_stats(
            "findmaxrange_cnf",
            start.elapsed().as_secs_f64() * 1e3,
            oracle.stats().sat_calls,
            max_tz.map_or(-1.0, |v| v as f64),
            oracle.solver_stats(),
        );
    }

    // The enumerative Estimation backend (oracle-free; measures the
    // solution-set cache rather than the solver).
    {
        let dnf = bench_dnf(16, 10, 7);
        let exact = mcf0::formula::exact::count_dnf_exact(&dnf) as f64;
        let r = (exact * 2.0).log2().ceil().max(1.0) as u32;
        let est_config = CountingConfig::explicit(0.5, 0.2, 24, 3);
        let input = FormulaInput::Dnf(dnf);
        let start = Instant::now();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let result =
            approx_model_count_est(&input, &est_config, r, EstBackend::Enumerative, &mut rng);
        rec.record(
            "est_enumerative_dnf",
            start.elapsed().as_secs_f64() * 1e3,
            result.oracle_calls,
            result.estimate,
        );
    }

    // The Minimum counter end to end (prefix search under a 3n-bit hash).
    {
        let mut rng = Xoshiro256StarStar::seed_from_u64(303);
        let f = random_k_cnf(&mut rng, 9, 16, 3);
        let input = FormulaInput::Cnf(f);
        let config = CountingConfig::explicit(0.8, 0.3, 30, 5);
        let start = Instant::now();
        let result = approx_model_count_min(&input, &config, &mut rng);
        rec.record(
            "min_counter_cnf",
            start.elapsed().as_secs_f64() * 1e3,
            result.oracle_calls,
            result.estimate,
        );
    }

    // FindMin at n = 40 under a 120-bit hash: the smallest of the large-n
    // workloads, kept in the default set as the always-on CDCL-vs-chrono
    // regression witness (the chronological engine needs 20 s here).
    {
        let (f, h, p) = mcf0_bench::large_n::findmin_n40();
        let mut oracle = SatOracle::new(f);
        let start = Instant::now();
        let minima = find_min_cnf(&mut oracle, &h, p);
        rec.record_with_stats(
            "findmin_cnf_n40",
            start.elapsed().as_secs_f64() * 1e3,
            oracle.stats().sat_calls,
            minima.len() as f64,
            oracle.solver_stats(),
        );
    }

    if heavy {
        // FindMaxRange at n = 56: ~56 rows of Gaussian state under binary
        // search; the chronological engine did not finish in 5 minutes.
        {
            let (f, h) = mcf0_bench::large_n::findmaxrange_n56();
            let mut oracle = SatOracle::new(f);
            let start = Instant::now();
            let max_tz = find_max_range_cnf(&mut oracle, &h);
            rec.record_with_stats(
                "findmaxrange_cnf_n56",
                start.elapsed().as_secs_f64() * 1e3,
                oracle.stats().sat_calls,
                max_tz.map_or(-1.0, |v| v as f64),
                oracle.solver_stats(),
            );
        }

        // FindMin at n = 48 under a 144-bit hash; chronological engine did
        // not finish in 5 minutes.
        {
            let (f, h, p) = mcf0_bench::large_n::findmin_n48();
            let mut oracle = SatOracle::new(f);
            let start = Instant::now();
            let minima = find_min_cnf(&mut oracle, &h, p);
            rec.record_with_stats(
                "findmin_cnf_n48",
                start.elapsed().as_secs_f64() * 1e3,
                oracle.stats().sat_calls,
                minima.len() as f64,
                oracle.solver_stats(),
            );
        }

        // ApproxMC at n = 44 (level searches reach ~26 XOR rows, cells of
        // up to 40 solutions each); chronological engine: 436 s.
        {
            let f = mcf0_bench::large_n::approxmc_formula(44);
            let config = CountingConfig::explicit(0.8, 0.2, 40, 3);
            let input = FormulaInput::Cnf(f.clone());
            let mut oracle = SatOracle::new(f);
            let start = Instant::now();
            let mut hash_rng = mcf0_bench::large_n::approxmc_hash_rng();
            let result = approx_mc_on_oracle(
                &input,
                &config,
                LevelSearch::Galloping,
                &mut hash_rng,
                |rng| ToeplitzHash::sample(rng, 44, 44),
                Some(&mut oracle as &mut dyn SolutionOracle),
            );
            rec.record_with_stats(
                "approxmc_cnf_n44",
                start.elapsed().as_secs_f64() * 1e3,
                result.oracle_calls,
                result.estimate,
                oracle.solver_stats(),
            );
        }
    }

    rec.out
}

#[derive(Serialize)]
struct BaselineRow {
    name: String,
    wall_ms: f64,
    oracle_calls: u64,
}

#[derive(Serialize)]
struct ChronoBaselineRow {
    name: String,
    wall_ms: f64,
    timed_out: bool,
    oracle_calls: u64,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    profile: String,
    seed_baseline: Vec<BaselineRow>,
    chrono_baseline: Vec<ChronoBaselineRow>,
    instances: Vec<InstanceResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write = args.iter().any(|a| a == "--write");
    let heavy = args.iter().any(|a| a == "--heavy") || write;

    let results = run_instances(heavy);
    println!("| instance | wall (ms) | oracle calls | value | conflicts | learned | restarts |");
    println!("|---|---|---|---|---|---|---|");
    for r in &results {
        println!(
            "| {} | {:.2} | {} | {:.2} | {} | {} | {} |",
            r.name, r.wall_ms, r.oracle_calls, r.value, r.conflicts, r.learned, r.restarts
        );
    }

    if write {
        let report = Report {
            generated_by: "cargo run --release -p mcf0-bench --bin solver_bench -- --write".into(),
            profile: "release".into(),
            seed_baseline: SEED_BASELINE
                .iter()
                .map(|&(name, wall_ms, oracle_calls)| BaselineRow {
                    name: name.to_string(),
                    wall_ms,
                    oracle_calls,
                })
                .collect(),
            chrono_baseline: CHRONO_BASELINE
                .iter()
                .map(
                    |&(name, wall_ms, timed_out, oracle_calls)| ChronoBaselineRow {
                        name: name.to_string(),
                        wall_ms,
                        timed_out,
                        oracle_calls,
                    },
                )
                .collect(),
            instances: results.clone(),
        };
        let json = serde_json::to_string(&report).expect("serialization is infallible");
        std::fs::write("BENCH_solver.json", json + "\n").expect("write BENCH_solver.json");
        println!("wrote BENCH_solver.json");
    }

    if check {
        let mut drift = false;
        for (name, expected) in pinned_calls() {
            let Some(got) = results.iter().find(|r| r.name == name) else {
                // Heavy instances are only pinned when the heavy set ran.
                assert!(!heavy, "pinned instance {name} missing from a heavy run");
                continue;
            };
            if got.oracle_calls != expected {
                eprintln!(
                    "oracle-call drift on {name}: expected {expected}, got {}",
                    got.oracle_calls
                );
                drift = true;
            }
        }
        if drift {
            eprintln!("solver change altered the oracle-call accounting; see the pinned tables");
            std::process::exit(1);
        }
        println!("oracle-call counts match the pinned baseline");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approxmc_pins_never_exceed_their_baselines() {
        for &(name, pin) in APPROXMC_PINS {
            let (_, baseline) = baseline_calls()
                .find(|&(row, _)| row == name)
                .expect("every ApproxMC pin has a baseline row");
            assert!(pin <= baseline, "{name}: pin {pin} > baseline {baseline}");
        }
        let approxmc_rows = baseline_calls().filter(|(name, _)| name.starts_with("approxmc"));
        assert_eq!(approxmc_rows.count(), APPROXMC_PINS.len());
    }
}
