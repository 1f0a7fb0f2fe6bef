//! Property-based tests for the NP-oracle substrate: the CNF-XOR solver, the
//! bounded enumeration used by `ApproxMC`, and the `FindMin` /
//! `FindMaxRange` / `AffineFindMin` subroutines, all cross-checked against
//! brute-force ground truth on small variable counts.

use proptest::prelude::*;

use mcf0_formula::exact::count_cnf_brute_force;
use mcf0_formula::generators::{planted_dnf, random_dnf, random_k_cnf};
use mcf0_formula::Assignment;
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, XorHash, Xoshiro256StarStar};
use mcf0_sat::{
    affine_find_min, bounded_sat_cnf, bounded_sat_dnf, find_max_range_cnf, find_max_range_dnf,
    find_min_cnf, find_min_dnf, AffineSystem, BruteForceOracle, CnfXorSolver, SatOracle,
    SolutionOracle, SolveOutcome, XorConstraint,
};

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

fn assignment_from_u64(value: u64, num_vars: usize) -> Assignment {
    let mut a = Assignment::zeros(num_vars);
    for i in 0..num_vars {
        if (value >> i) & 1 == 1 {
            a.set(i, true);
        }
    }
    a
}

/// Forwards every required method to a `SatOracle` and keeps the provided
/// `enumerate_excluding`, so the trait's default answers.
struct DefaultExcluding(SatOracle);

impl SolutionOracle for DefaultExcluding {
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn assumption_len(&self) -> usize {
        self.0.assumption_len()
    }
    fn push_assumption(&mut self, xor: &XorConstraint) {
        self.0.push_assumption(xor);
    }
    fn pop_assumptions_to(&mut self, len: usize) {
        self.0.pop_assumptions_to(len);
    }
    fn exists(&mut self) -> bool {
        self.0.exists()
    }
    fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.0.enumerate(limit)
    }
    fn stats(&self) -> mcf0_sat::OracleStats {
        self.0.stats()
    }
}

// ---------------------------------------------------------------------------
// The CNF-XOR solver against brute force
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn solver_agrees_with_brute_force_on_satisfiability(
        seed in any::<u64>(),
        n in 3usize..9,
        clauses in 1usize..16,
        xor_rows in 0usize..4,
    ) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let xors: Vec<XorConstraint> = (0..xor_rows)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();

        let brute_sat = (0..(1u64 << n)).any(|v| {
            let a = assignment_from_u64(v, n);
            f.eval(&a) && xors.iter().all(|x| x.eval(&a))
        });

        let mut solver = CnfXorSolver::from_cnf(&f);
        for x in &xors {
            solver.add_xor(x.clone());
        }
        match solver.solve() {
            SolveOutcome::Sat(model) => {
                prop_assert!(brute_sat);
                prop_assert!(f.eval(&model));
                prop_assert!(xors.iter().all(|x| x.eval(&model)));
                prop_assert!(solver.verify(&model));
            }
            SolveOutcome::Unsat => prop_assert!(!brute_sat),
        }
    }

    #[test]
    fn solver_enumeration_finds_every_solution(seed in any::<u64>(), n in 3usize..8, clauses in 1usize..12) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let mut solver = CnfXorSolver::from_cnf(&f);
        let mut found: Vec<u64> = solver
            .enumerate(1 << n)
            .iter()
            .map(|a| (0..n).fold(0u64, |acc, i| acc | ((a.get(i) as u64) << i)))
            .collect();
        found.sort_unstable();
        let expected: Vec<u64> = (0..(1u64 << n))
            .filter(|&v| f.eval(&assignment_from_u64(v, n)))
            .collect();
        prop_assert_eq!(found, expected);
    }

    #[test]
    fn oracle_backends_agree(seed in any::<u64>(), n in 3usize..8, clauses in 1usize..12, xor_rows in 0usize..3) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let xors: Vec<XorConstraint> = (0..xor_rows)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        let mut sat = SatOracle::new(f.clone());
        let mut brute = BruteForceOracle::from_cnf(f);
        prop_assert_eq!(sat.exists_with_xors(&xors), brute.exists_with_xors(&xors));
        prop_assert_eq!(
            sat.enumerate_with_xors(&xors, 1 << n).len(),
            brute.enumerate_with_xors(&xors, 1 << n).len()
        );
        prop_assert!(sat.stats().sat_calls > 0);
    }

    #[test]
    fn xor_constraint_from_row_evaluates_the_affine_equation(
        seed in any::<u64>(),
        n in 1usize..32,
        target in any::<bool>(),
        x_raw in any::<u64>(),
    ) {
        let mut rng = rng_from(seed);
        let row = rng.random_bitvec(n);
        let constraint = XorConstraint::from_row(&row, target);
        let x = BitVec::from_u64(x_raw & if n >= 64 { u64::MAX } else { (1 << n) - 1 }, n);
        // The constraint holds iff <row, x> equals the target parity.
        prop_assert_eq!(constraint.eval(&x), row.dot(&x) == target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn enumerate_excluding_agrees_with_its_default(
        seed in any::<u64>(),
        n in 3usize..11,
        clauses in 1usize..20,
        xor_rows in 0usize..4,
        limit in 1usize..40,
    ) {
        // The solver override, the brute-force override and the trait's
        // default (through a forwarding decorator) return the same number
        // of fresh models: min(|cell| − |known|, limit).
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let xors: Vec<XorConstraint> = (0..xor_rows)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        let cell = BruteForceOracle::from_cnf(f.clone()).enumerate_with_xors(&xors, 1 << n);
        let known: Vec<Assignment> = cell.iter().filter(|_| rng.next_bool()).cloned().collect();
        let expected = (cell.len() - known.len()).min(limit);
        for oracle in [
            &mut SatOracle::new(f.clone()) as &mut dyn SolutionOracle,
            &mut BruteForceOracle::from_cnf(f.clone()),
            &mut DefaultExcluding(SatOracle::new(f.clone())),
        ] {
            for x in &xors {
                oracle.push_assumption(x);
            }
            let fresh = oracle.enumerate_excluding(&known, limit);
            oracle.pop_assumptions_to(0);
            prop_assert_eq!(fresh.len(), expected);
            let mut distinct = fresh.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), expected);
            for model in &fresh {
                prop_assert!(f.eval(model) && xors.iter().all(|x| x.eval(model)));
                prop_assert!(!known.contains(model));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_incremental_oracle_matches_fresh_brute_force_per_query(
        seed in any::<u64>(),
        n in 3usize..8,
        clauses in 1usize..12,
    ) {
        // A single SatOracle serves a whole sequence of differently-sized
        // XOR-constraint sets through its assumption stack (the access
        // pattern of the level searches); every answer must match a fresh
        // brute-force query, and the stack must come back clean.
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let mut sat = SatOracle::new(f.clone());
        let unconstrained = sat.enumerate(1 << n).len();
        for rows in [2usize, 0, 3, 1, 2] {
            let xors: Vec<XorConstraint> = (0..rows)
                .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
                .collect();
            let mark = sat.assumption_len();
            for x in &xors {
                sat.push_assumption(x);
            }
            let got = sat.enumerate(1 << n).len();
            let exists = sat.exists();
            sat.pop_assumptions_to(mark);

            let mut brute = BruteForceOracle::from_cnf(f.clone());
            let expected = brute.enumerate_with_xors(&xors, 1 << n).len();
            prop_assert_eq!(got, expected, "rows={}", rows);
            prop_assert_eq!(exists, expected > 0);
        }
        prop_assert_eq!(sat.assumption_len(), 0);
        prop_assert_eq!(sat.enumerate(1 << n).len(), unconstrained);
    }

    #[test]
    fn solver_assumption_push_pop_is_state_restoring(
        seed in any::<u64>(),
        n in 3usize..8,
        clauses in 1usize..10,
        xor_rows in 1usize..4,
    ) {
        // Solving under pushed rows and popping them must leave the solver
        // bit-for-bit equivalent to never having pushed: same satisfiability,
        // same solution count, repeatable.
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let mut solver = CnfXorSolver::from_cnf(&f);
        let before = solver.enumerate(1 << n).len();
        let base = solver.assumption_len();
        let xors: Vec<XorConstraint> = (0..xor_rows)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        for x in &xors {
            solver.push_assumption(x);
        }
        let constrained: Vec<Assignment> = solver.enumerate(1 << n);
        for sol in &constrained {
            prop_assert!(f.eval(sol));
            prop_assert!(xors.iter().all(|x| x.eval(sol)));
        }
        solver.pop_assumptions_to(base);
        prop_assert_eq!(solver.enumerate(1 << n).len(), before);
        prop_assert_eq!(solver.enumerate(1 << n).len(), before);
    }
}

// ---------------------------------------------------------------------------
// BoundedSAT (Proposition 1)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bounded_sat_cnf_counts_the_hash_cell(seed in any::<u64>(), n in 3usize..8, clauses in 1usize..12, m_frac in 0.0f64..=1.0) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let h = ToeplitzHash::sample(&mut rng, n, n);
        let m = ((n as f64) * m_frac) as usize;

        let expected = (0..(1u64 << n))
            .filter(|&v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a) && h.prefix_is_zero(&a, m)
            })
            .count();

        let mut oracle = SatOracle::new(f.clone());
        let result = bounded_sat_cnf(&mut oracle, &h, m, 1 << n);
        prop_assert_eq!(result.count(), expected);
        for sol in &result.solutions {
            prop_assert!(f.eval(sol));
            prop_assert!(h.prefix_is_zero(sol, m));
        }
    }

    #[test]
    fn bounded_sat_dnf_counts_the_hash_cell(seed in any::<u64>(), n in 3usize..8, terms in 1usize..6, m_frac in 0.0f64..=1.0) {
        let mut rng = rng_from(seed);
        let f = random_dnf(&mut rng, n, terms, (1, 3.min(n)));
        let h = ToeplitzHash::sample(&mut rng, n, n);
        let m = ((n as f64) * m_frac) as usize;

        let expected = (0..(1u64 << n))
            .filter(|&v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a) && h.prefix_is_zero(&a, m)
            })
            .count();

        let result = bounded_sat_dnf(&f, &h, m, 1 << n);
        prop_assert_eq!(result.count(), expected);
    }

    #[test]
    fn bounded_sat_respects_its_limit(seed in any::<u64>(), n in 4usize..8, limit in 1usize..10) {
        let mut rng = rng_from(seed);
        // A tautology-like DNF with one free term gives a big cell at m = 0.
        let (f, _) = planted_dnf(&mut rng, n, (1 << n) / 2);
        let h = ToeplitzHash::sample(&mut rng, n, n);
        let result = bounded_sat_dnf(&f, &h, 0, limit);
        prop_assert!(result.count() <= limit);
    }
}

// ---------------------------------------------------------------------------
// FindMin (Proposition 2) and AffineFindMin (Proposition 4)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn find_min_dnf_matches_ground_truth(seed in any::<u64>(), n in 3usize..8, terms in 1usize..6, p in 1usize..20) {
        let mut rng = rng_from(seed);
        let f = random_dnf(&mut rng, n, terms, (1, 3.min(n)));
        let h = ToeplitzHash::sample(&mut rng, n, 3 * n);

        let mut truth: Vec<BitVec> = (0..(1u64 << n))
            .filter_map(|v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a).then(|| h.eval(&a))
            })
            .collect();
        truth.sort();
        truth.dedup();
        truth.truncate(p);

        prop_assert_eq!(find_min_dnf(&f, &h, p), truth);
    }

    #[test]
    fn find_min_cnf_matches_ground_truth(seed in any::<u64>(), n in 3usize..7, clauses in 1usize..10, p in 1usize..16) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let h = ToeplitzHash::sample(&mut rng, n, 2 * n);

        let mut truth: Vec<BitVec> = (0..(1u64 << n))
            .filter_map(|v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a).then(|| h.eval(&a))
            })
            .collect();
        truth.sort();
        truth.dedup();
        truth.truncate(p);

        let mut oracle = SatOracle::new(f);
        prop_assert_eq!(find_min_cnf(&mut oracle, &h, p), truth);
    }

    #[test]
    fn find_min_is_monotone_in_p(seed in any::<u64>(), n in 3usize..8, terms in 1usize..5) {
        let mut rng = rng_from(seed);
        let f = random_dnf(&mut rng, n, terms, (1, 3.min(n)));
        let h = ToeplitzHash::sample(&mut rng, n, 3 * n);
        let small = find_min_dnf(&f, &h, 4);
        let large = find_min_dnf(&f, &h, 12);
        prop_assert!(large.len() >= small.len());
        prop_assert_eq!(&large[..small.len()], &small[..]);
    }

    #[test]
    fn affine_find_min_matches_ground_truth(seed in any::<u64>(), n in 2usize..7, rows in 1usize..7, t in 1usize..16) {
        let mut rng = rng_from(seed);
        let a = mcf0_gf2::BitMatrix::from_rows((0..rows).map(|_| rng.random_bitvec(n)).collect());
        let b = rng.random_bitvec(rows);
        let system = AffineSystem::new(a.clone(), b.clone());
        let h = XorHash::sample(&mut rng, n, 3 * n);

        let mut truth: Vec<BitVec> = (0..(1u64 << n))
            .filter_map(|v| {
                let x = BitVec::from_u64(v, n);
                (a.mul_vec(&x) == b).then(|| h.eval(&x))
            })
            .collect();
        truth.sort();
        truth.dedup();
        truth.truncate(t);

        prop_assert_eq!(affine_find_min(&system, &h, t), truth);
    }

    #[test]
    fn affine_solution_count_matches_brute_force(seed in any::<u64>(), n in 2usize..8, rows in 1usize..8) {
        let mut rng = rng_from(seed);
        let a = mcf0_gf2::BitMatrix::from_rows((0..rows).map(|_| rng.random_bitvec(n)).collect());
        let b = rng.random_bitvec(rows);
        let system = AffineSystem::new(a.clone(), b.clone());
        let expected = (0..(1u64 << n))
            .filter(|&v| a.mul_vec(&BitVec::from_u64(v, n)) == b)
            .count() as u128;
        prop_assert_eq!(system.solution_count(), expected);
    }
}

// ---------------------------------------------------------------------------
// FindMaxRange (Proposition 3)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn find_max_range_cnf_matches_ground_truth(seed in any::<u64>(), n in 3usize..8, clauses in 1usize..10) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let h = ToeplitzHash::sample(&mut rng, n, n);

        let expected = (0..(1u64 << n))
            .filter_map(|v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a).then(|| h.eval(&a).trailing_zeros())
            })
            .max();

        let mut oracle = SatOracle::new(f);
        prop_assert_eq!(find_max_range_cnf(&mut oracle, &h), expected);
    }

    #[test]
    fn find_max_range_dnf_matches_ground_truth(seed in any::<u64>(), n in 3usize..8, terms in 1usize..6) {
        let mut rng = rng_from(seed);
        let f = random_dnf(&mut rng, n, terms, (1, 3.min(n)));
        let h = ToeplitzHash::sample(&mut rng, n, n);

        let expected = (0..(1u64 << n))
            .filter_map(|v| {
                let a = assignment_from_u64(v, n);
                f.eval(&a).then(|| h.eval(&a).trailing_zeros())
            })
            .max();

        prop_assert_eq!(find_max_range_dnf(&f, &h), expected);
    }

    #[test]
    fn find_max_range_is_consistent_across_cnf_and_dnf_views(seed in any::<u64>(), n in 3usize..7, count in 1usize..20) {
        // The same planted solution set seen as a DNF and as its brute-force
        // oracle must report the same maximum trailing-zero statistic.
        let mut rng = rng_from(seed);
        let count = count.min(1 << n);
        let (f, _) = planted_dnf(&mut rng, n, count);
        let h = ToeplitzHash::sample(&mut rng, n, n);
        let via_dnf = find_max_range_dnf(&f, &h);
        let mut oracle = BruteForceOracle::from_dnf(f);
        let via_oracle = find_max_range_cnf(&mut oracle, &h);
        prop_assert_eq!(via_dnf, via_oracle);
    }
}

// ---------------------------------------------------------------------------
// Blocking clauses and oracle statistics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocking_an_assignment_removes_exactly_one_solution(seed in any::<u64>(), n in 3usize..8, clauses in 1usize..10) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let before = count_cnf_brute_force(&f);
        let mut solver = CnfXorSolver::from_cnf(&f);
        if let SolveOutcome::Sat(model) = solver.solve() {
            solver.block_assignment(&model);
            let remaining = solver.enumerate(1 << n).len() as u128;
            prop_assert_eq!(remaining, before - 1);
        } else {
            prop_assert_eq!(before, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// CDCL vs chronological engine parity (the differential contract of the CDCL
// rewrite: identical verdicts, identical solution sets, identical subroutine
// outputs — only the search inside each oracle call may differ)
// ---------------------------------------------------------------------------

use mcf0_sat::{ChronoOracle, ChronoSolver};

fn sorted_solutions(sols: Vec<Assignment>) -> Vec<Assignment> {
    let mut sols = sols;
    sols.sort();
    sols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cdcl_matches_chrono_on_verdicts_and_solution_sets(
        seed in any::<u64>(),
        n in 3usize..9,
        clauses in 1usize..18,
        xor_rows in 0usize..5,
    ) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let mut cdcl = CnfXorSolver::from_cnf(&f);
        let mut chrono = ChronoSolver::from_cnf(&f);
        for _ in 0..xor_rows {
            let xor = XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool());
            cdcl.add_xor(xor.clone());
            chrono.add_xor(xor);
        }
        let a = matches!(cdcl.solve(), SolveOutcome::Sat(_));
        let b = matches!(chrono.solve(), SolveOutcome::Sat(_));
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            sorted_solutions(cdcl.enumerate(1 << n)),
            sorted_solutions(chrono.enumerate(1 << n))
        );
    }

    #[test]
    fn cdcl_matches_chrono_on_assumption_session_replay(
        seed in any::<u64>(),
        n in 3usize..8,
        clauses in 1usize..12,
        ops in proptest::collection::vec((0usize..4, any::<u64>()), 1..12),
    ) {
        // Replay one interleaved push/pop/solve/enumerate sequence against
        // both engines; every intermediate answer must be bit-identical.
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let mut cdcl = CnfXorSolver::from_cnf(&f);
        let mut chrono = ChronoSolver::from_cnf(&f);
        for (op, op_seed) in ops {
            let mut op_rng = rng_from(op_seed);
            match op {
                0 => {
                    let xor = XorConstraint::from_row(
                        &op_rng.random_bitvec(n),
                        op_rng.next_bool(),
                    );
                    cdcl.push_assumption(&xor);
                    chrono.push_assumption(&xor);
                }
                1 => {
                    let len = cdcl.assumption_len();
                    let target = if len == 0 { 0 } else { op_seed as usize % (len + 1) };
                    cdcl.pop_assumptions_to(target);
                    chrono.pop_assumptions_to(target);
                }
                2 => {
                    prop_assert_eq!(
                        matches!(cdcl.solve(), SolveOutcome::Sat(_)),
                        matches!(chrono.solve(), SolveOutcome::Sat(_))
                    );
                }
                _ => {
                    prop_assert_eq!(
                        sorted_solutions(cdcl.enumerate(1 << n)),
                        sorted_solutions(chrono.enumerate(1 << n))
                    );
                }
            }
            prop_assert_eq!(cdcl.assumption_len(), chrono.assumption_len());
        }
        cdcl.pop_assumptions_to(0);
        chrono.pop_assumptions_to(0);
        prop_assert_eq!(
            sorted_solutions(cdcl.enumerate(1 << n)),
            sorted_solutions(chrono.enumerate(1 << n))
        );
    }

    #[test]
    fn find_min_and_max_range_agree_across_engines(
        seed in any::<u64>(),
        n in 3usize..8,
        clauses in 1usize..10,
        p in 1usize..12,
    ) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let h = ToeplitzHash::sample(&mut rng, n, 2 * n);
        let mut cdcl = SatOracle::new(f.clone());
        let mut chrono = ChronoOracle::new(f);
        prop_assert_eq!(
            find_min_cnf(&mut cdcl, &h, p),
            find_min_cnf(&mut chrono, &h, p)
        );
        prop_assert_eq!(
            find_max_range_cnf(&mut cdcl, &h),
            find_max_range_cnf(&mut chrono, &h)
        );
        // The paper's accounting must be engine-independent: both backends
        // issue exactly the same number of oracle calls.
        prop_assert_eq!(cdcl.stats(), chrono.stats());
    }
}

// ---------------------------------------------------------------------------
// Learned-clause soundness: every clause the CDCL engine retains is implied
// by the original formula plus the currently active XOR constraints
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn learned_clauses_are_implied_by_the_formula(
        seed in any::<u64>(),
        n in 3usize..8,
        clauses in 1usize..16,
        xor_rows in 0usize..4,
    ) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let xors: Vec<XorConstraint> = (0..xor_rows)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        let mut solver = CnfXorSolver::from_cnf(&f);
        for x in &xors {
            solver.push_assumption(x);
        }
        let _ = solver.enumerate(1 << n);

        // Brute-force model check: with the rows still pushed, learned
        // clauses must hold in every model of φ ∧ rows.
        let implied_by = |constraints: &[XorConstraint], clause: &Vec<mcf0_formula::Literal>| {
            (0..(1u64 << n)).all(|v| {
                let a = assignment_from_u64(v, n);
                let model = f.eval(&a) && constraints.iter().all(|x| x.eval(&a));
                !model || clause.iter().any(|l| l.eval(a.get(l.var())))
            })
        };
        for clause in solver.learned_clause_lits() {
            prop_assert!(implied_by(&xors, &clause), "clause {:?} under rows", clause);
        }

        // After popping every row, the surviving clauses must be implied by
        // the formula alone.
        solver.pop_assumptions_to(0);
        for clause in solver.learned_clause_lits() {
            prop_assert!(implied_by(&[], &clause), "clause {:?} after pop", clause);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn partial_pops_keep_only_grounded_learned_clauses(
        seed in any::<u64>(),
        clauses in 8usize..32,
        keep in 0usize..6,
    ) {
        // Learn under six pushed rows, pop back to the first `keep`: every
        // clause that survives must still follow from φ ∧ rows[..keep]. XOR
        // reasons combine several rows, so this pins their dependency
        // bookkeeping at every prefix, not only the empty one.
        let n = 10;
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3);
        let xors: Vec<XorConstraint> = (0..6)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        let mut solver = CnfXorSolver::from_cnf(&f);
        for x in &xors {
            solver.push_assumption(x);
        }
        let _ = solver.enumerate(1 << n);
        solver.pop_assumptions_to(keep);

        let models: Vec<Assignment> = (0..(1u64 << n))
            .map(|v| assignment_from_u64(v, n))
            .filter(|a| f.eval(a) && xors[..keep].iter().all(|x| x.eval(a)))
            .collect();
        for clause in solver.learned_clause_lits() {
            prop_assert!(
                models.iter().all(|a| clause.iter().any(|l| l.eval(a.get(l.var())))),
                "clause {:?} after popping to {}", clause, keep
            );
        }
        prop_assert_eq!(
            sorted_solutions(solver.enumerate(1 << n)),
            sorted_solutions(models)
        );
    }
}
