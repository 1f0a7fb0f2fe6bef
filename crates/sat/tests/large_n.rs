//! Large-`n` CNF-XOR workloads unlocked by the CDCL engine.
//!
//! These instances were infeasible (or minutes-slow) for the chronological
//! engine — `BENCH_solver.json`'s `chrono_baseline` block records the
//! measured walls/timeouts. Under CDCL with incremental Gauss–Jordan XOR
//! propagation they take under a second together in a debug build, so they
//! run in the default `cargo test` and pin both the results and the
//! oracle-call accounting at scale.
//!
//! The canonical workload constructors live in `mcf0_bench::large_n` (shared
//! by `solver_bench --heavy` and the E17 experiment); this crate cannot
//! depend on `mcf0-bench` without a dev-dependency cycle through `mcf0`, so
//! the instances are re-derived here from the same seeds — keep the
//! parameters and the pinned call counts in sync with that module and with
//! `solver_bench`'s `CHRONO_BASELINE` table.

use mcf0_formula::generators::random_k_cnf;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{find_max_range_cnf, find_min_cnf, SatOracle, SolutionOracle};

#[test]
fn find_min_at_n40_completes_and_pins_its_accounting() {
    // Chronological engine: 20.4 s release. CDCL: ~0.01 s release, ~0.1 s
    // debug.
    let mut rng = Xoshiro256StarStar::seed_from_u64(5656);
    let f = random_k_cnf(&mut rng, 40, 80, 3);
    let h = ToeplitzHash::sample(&mut rng, 40, 120);
    let mut oracle = SatOracle::new(f);
    let minima = find_min_cnf(&mut oracle, &h, 8);
    assert_eq!(minima.len(), 8);
    // Minima come out sorted and distinct (the lexicographic contract).
    for pair in minima.windows(2) {
        assert!(pair[0] < pair[1]);
    }
    assert_eq!(oracle.stats().sat_calls, 1148);
    assert!(oracle.solver_stats().learned_clauses > 0);
}

#[test]
fn find_max_range_at_n56_completes_and_pins_its_accounting() {
    // Chronological engine: did not finish in 5 minutes. CDCL: ~0.01 s
    // release, ~0.07 s debug.
    let mut rng = Xoshiro256StarStar::seed_from_u64(6464);
    let f = random_k_cnf(&mut rng, 56, 112, 3);
    let h = ToeplitzHash::sample(&mut rng, 56, 56);
    let mut oracle = SatOracle::new(f);
    let max_tz = find_max_range_cnf(&mut oracle, &h);
    assert_eq!(max_tz, Some(36));
    assert_eq!(oracle.stats().sat_calls, 7);
}

#[test]
fn find_min_at_n48_completes_and_pins_its_accounting() {
    // Chronological engine: did not finish in 5 minutes. CDCL: ~0.07 s
    // release, ~0.7 s debug.
    let mut rng = Xoshiro256StarStar::seed_from_u64(5656);
    let f = random_k_cnf(&mut rng, 48, 96, 3);
    let h = ToeplitzHash::sample(&mut rng, 48, 144);
    let mut oracle = SatOracle::new(f);
    let minima = find_min_cnf(&mut oracle, &h, 8);
    assert_eq!(minima.len(), 8);
    assert_eq!(oracle.stats().sat_calls, 1375);
}
