//! `ApproxMC` — the Bucketing strategy transformed into a model counter
//! (Algorithm 5, Theorem 2).
//!
//! For each of the `t` iterations the counter draws `h ∈ H_Toeplitz(n, n)`
//! and finds the level `m` at which the cell `Sol(φ ∧ h_m(x) = 0^m)` first
//! becomes small (fewer than `Thresh` solutions), using `BoundedSAT`
//! (Proposition 1) to measure cells. The iteration's estimate is
//! `c · 2^m`; the final answer is the median over iterations.
//!
//! Two level-search policies are provided:
//!
//! * [`LevelSearch::Linear`] — the paper's Algorithm 5: start at `m = 0` and
//!   increment (`O(n·ε⁻²)` oracle calls per iteration for CNF);
//! * [`LevelSearch::Galloping`] — the ApproxMC2 refinement discussed in
//!   "Further Optimizations": exponential probing followed by binary search
//!   over the level (`O(log n · ε⁻²)` oracle calls per iteration), exploiting
//!   the monotonicity `Sol(φ ∧ h_{m}(x)=0^{m}) ⊇ Sol(φ ∧ h_{m+1}(x)=0^{m+1})`.
//!
//! The CNF path also takes ApproxMC2's solution reuse from the same nesting.
//! A model pool holds what the current and the previous iteration's probes
//! returned; a model lies in cell(m) iff `h(x)` starts with at least `m` zero
//! bits. A probe is answered from the pool, with no oracle call, when a level
//! at or below it was enumerated below `Thresh` in this iteration or when the
//! pool already holds `Thresh` members of its cell. Otherwise the oracle is
//! handed the known members and enumerates only the rest. Every probe still
//! returns `min(|cell|, Thresh)`, so levels and estimates are those of the
//! plain algorithm; only the oracle calls fall, by an amount that depends on
//! which models the backend returned (DESIGN.md §4).
//! [`approx_mc_reference`] is the plain algorithm, kept as the executable
//! specification the pooled path is tested against.

use crate::config::{median, CountingConfig};
use crate::input::{CountOutcome, FormulaInput};
use mcf0_formula::{Assignment, CnfFormula};
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::bounded::hash_prefix_zero_constraints;
use mcf0_sat::{bounded_sat_dnf, SatOracle, SolutionOracle, XorConstraint, XorPrefixSession};

/// How `ApproxMC` searches for the right hash-prefix level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelSearch {
    /// Linear scan from level 0 upward (Algorithm 5 as printed).
    Linear,
    /// Exponential probing + binary search (the ApproxMC2 optimisation).
    Galloping,
}

/// Runs `ApproxMC` on a CNF or DNF formula with the paper's
/// `H_Toeplitz(n, n)` hash family.
pub fn approx_mc(
    input: &FormulaInput,
    config: &CountingConfig,
    search: LevelSearch,
    rng: &mut Xoshiro256StarStar,
) -> CountOutcome {
    let n = input.num_vars();
    approx_mc_with_sampler(input, config, search, rng, |rng| {
        ToeplitzHash::sample(rng, n, n)
    })
}

/// Runs `ApproxMC` with a caller-supplied hash sampler. This is the hook the
/// ablation experiments use to swap `H_Toeplitz` for `H_xor` or the sparse
/// family of [`mcf0_hashing::SparseXorHash`] without touching the counting
/// logic; the sampler is invoked once per iteration.
pub fn approx_mc_with_sampler<H: LinearHash>(
    input: &FormulaInput,
    config: &CountingConfig,
    search: LevelSearch,
    rng: &mut Xoshiro256StarStar,
    sample_hash: impl FnMut(&mut Xoshiro256StarStar) -> H,
) -> CountOutcome {
    // One solver instance for the whole run: hash rows are pushed and popped
    // as assumptions, so neither iterations nor level probes rebuild it.
    let mut cnf_oracle = match input {
        FormulaInput::Cnf(cnf) => Some(SatOracle::new(cnf.clone())),
        FormulaInput::Dnf(_) => None,
    };
    approx_mc_on_oracle(
        input,
        config,
        search,
        rng,
        sample_hash,
        cnf_oracle.as_mut().map(|o| o as &mut dyn SolutionOracle),
    )
}

/// [`approx_mc_with_sampler`] against a caller-supplied oracle for the CNF
/// path (`None` is only valid for DNF inputs). This is the hook the parity
/// tests and benchmarks use to run the same counting logic over the SAT and
/// brute-force backends, or a timing decorator, and to read the backend's
/// statistics afterwards. Levels and estimates are the same on every
/// backend; oracle calls are not, because the model pool reuses whichever
/// models the backend returned.
pub fn approx_mc_on_oracle<H: LinearHash>(
    input: &FormulaInput,
    config: &CountingConfig,
    search: LevelSearch,
    rng: &mut Xoshiro256StarStar,
    mut sample_hash: impl FnMut(&mut Xoshiro256StarStar) -> H,
    mut cnf_oracle: Option<&mut dyn SolutionOracle>,
) -> CountOutcome {
    let thresh = config.thresh;
    let mut per_iteration = Vec::with_capacity(config.rows);
    let mut estimates = Vec::with_capacity(config.rows);
    let mut oracle_calls = 0u64;
    let mut pool = ModelPool::default();
    assert!(
        cnf_oracle.is_some() || matches!(input, FormulaInput::Dnf(_)),
        "CNF inputs need an oracle"
    );

    for _ in 0..config.rows {
        let hash = sample_hash(rng);
        assert_eq!(
            hash.input_bits(),
            input.num_vars(),
            "hash input width must match the variable count"
        );
        // The deepest level the search may reach is the hash output width.
        let n = hash.output_bits();
        // Cell-size probe at a given level, saturating at `thresh`.
        let (level, cell) = match input {
            FormulaInput::Cnf(_) => {
                let oracle: &mut dyn SolutionOracle =
                    *cnf_oracle.as_mut().expect("CNF input has an oracle");
                let calls_before = oracle.stats().sat_calls;
                // All candidate rows for this iteration's hash; level m uses
                // the prefix `rows[..m]`, which both search policies visit
                // through one pop-to-common-prefix session.
                let rows = hash_prefix_zero_constraints(&hash, n);
                let mut session = XorPrefixSession::new(oracle);
                pool.next_iteration(&hash);
                let result = search_level(search, n, thresh, |m| {
                    pool.probe(&hash, &rows, m, thresh, &mut session)
                });
                drop(session);
                oracle_calls += oracle.stats().sat_calls - calls_before;
                result
            }
            FormulaInput::Dnf(dnf) => search_level(search, n, thresh, |m| {
                bounded_sat_dnf(dnf, &hash, m, thresh).count()
            }),
        };
        per_iteration.push((level, cell));
        estimates.push(cell as f64 * 2f64.powi(level as i32));
    }

    CountOutcome {
        estimate: median(&estimates),
        oracle_calls,
        per_iteration,
    }
}

/// The models the CNF path's probes returned in the current and the
/// previous iteration, each with its depth under the current hash: the
/// number of leading zero bits of `h(x)`, so the model is in cell(m) iff its
/// depth is at least `m`. The bound of two iterations keeps the pool at
/// `O(probes · Thresh)` models for any number of iterations.
#[derive(Default)]
struct ModelPool {
    /// `(depth, model)`, the previous iteration's first.
    models: Vec<(usize, Assignment)>,
    /// Where this iteration's models start in `models`.
    current: usize,
    /// The shallowest level enumerated below `Thresh` in this iteration;
    /// every cell at or past it lies wholly in the pool.
    complete_at: Option<usize>,
}

impl ModelPool {
    /// Starts an iteration under `hash`: drops the models older than the
    /// previous iteration and recomputes the depth of the rest.
    fn next_iteration<H: LinearHash>(&mut self, hash: &H) {
        self.models.drain(..self.current);
        for (depth, model) in &mut self.models {
            *depth = depth_under(hash, model);
        }
        self.current = self.models.len();
        self.complete_at = None;
    }

    /// `min(|cell(m)|, thresh)`, asking the oracle only for the members of
    /// cell(m) that the pool does not hold.
    fn probe<H: LinearHash>(
        &mut self,
        hash: &H,
        rows: &[XorConstraint],
        m: usize,
        thresh: usize,
        session: &mut XorPrefixSession<'_>,
    ) -> usize {
        let members = self.models.iter().filter(|&&(depth, _)| depth >= m);
        if self.complete_at.is_some_and(|level| level <= m) {
            return members.count();
        }
        let known: Vec<Assignment> = members.take(thresh).map(|(_, x)| x.clone()).collect();
        if known.len() == thresh {
            return thresh;
        }
        session.set_rows(&rows[..m]);
        let fresh = session.enumerate_excluding(&known, thresh - known.len());
        let count = known.len() + fresh.len();
        if count < thresh {
            // Below any level already complete, or it would have answered.
            self.complete_at = Some(m);
        }
        let fresh = fresh.into_iter().map(|x| (depth_under(hash, &x), x));
        self.models.extend(fresh);
        count
    }
}

/// The number of leading zero bits of `h(x)`.
fn depth_under<H: LinearHash>(hash: &H, x: &Assignment) -> usize {
    let image = hash.eval(x);
    image.leading_one().unwrap_or(image.len())
}

/// The plain CNF path, kept as the executable specification of the pooled
/// one: the same hash draws and level search, with every probe enumerating
/// its cell from scratch on a fresh [`SatOracle`]. Its `oracle_calls` is
/// therefore the count without model reuse, the sum over probes of
/// `min(|cell|, Thresh) + 1`.
pub fn approx_mc_reference<H: LinearHash>(
    formula: &CnfFormula,
    config: &CountingConfig,
    search: LevelSearch,
    rng: &mut Xoshiro256StarStar,
    mut sample_hash: impl FnMut(&mut Xoshiro256StarStar) -> H,
) -> CountOutcome {
    let mut per_iteration = Vec::with_capacity(config.rows);
    let mut estimates = Vec::with_capacity(config.rows);
    let mut oracle_calls = 0u64;
    for _ in 0..config.rows {
        let hash = sample_hash(rng);
        let n = hash.output_bits();
        let rows = hash_prefix_zero_constraints(&hash, n);
        let (level, cell) = search_level(search, n, config.thresh, |m| {
            let mut oracle = SatOracle::new(formula.clone());
            let count = oracle.enumerate_with_xors(&rows[..m], config.thresh).len();
            oracle_calls += oracle.stats().sat_calls;
            count
        });
        per_iteration.push((level, cell));
        estimates.push(cell as f64 * 2f64.powi(level as i32));
    }
    CountOutcome {
        estimate: median(&estimates),
        oracle_calls,
        per_iteration,
    }
}

/// Finds the smallest level `m` whose cell is small (`count(m) < thresh`),
/// returning `(m, count(m))`. `count` must be non-increasing in `m` up to the
/// saturation at `thresh`, which holds because raising the level only shrinks
/// the cell.
fn search_level(
    search: LevelSearch,
    n: usize,
    thresh: usize,
    mut count: impl FnMut(usize) -> usize,
) -> (usize, usize) {
    match search {
        LevelSearch::Linear => {
            let mut m = 0usize;
            let mut c = count(m);
            while c >= thresh && m < n {
                m += 1;
                c = count(m);
            }
            (m, c)
        }
        LevelSearch::Galloping => {
            // Probe levels 0, 1, 2, 4, 8, … until the cell is small.
            let mut c0 = count(0);
            if c0 < thresh {
                return (0, c0);
            }
            let mut lo = 0usize; // largest level known to be large (>= thresh)
            let mut hi = 1usize;
            loop {
                if hi >= n {
                    hi = n;
                    c0 = count(hi);
                    break;
                }
                c0 = count(hi);
                if c0 < thresh {
                    break;
                }
                lo = hi;
                hi *= 2;
            }
            if c0 >= thresh {
                // Even the full-length prefix is large; report saturation at n.
                return (hi, c0);
            }
            // Invariant: count(lo) >= thresh > count(hi); binary search for the
            // smallest small level in (lo, hi].
            let mut small_level = hi;
            let mut small_count = c0;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let c = count(mid);
                if c < thresh {
                    hi = mid;
                    small_level = mid;
                    small_count = c;
                } else {
                    lo = mid;
                }
            }
            (small_level, small_count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::{count_cnf_dpll, count_dnf_exact};
    use mcf0_formula::generators::{planted_dnf, random_dnf, random_k_cnf};

    fn config_for_tests() -> CountingConfig {
        // ε = 0.8 keeps Thresh at 150 but we reduce the repetition count to
        // keep unit-test runtime sensible; accuracy assertions are loose.
        CountingConfig::explicit(0.8, 0.2, 150, 9)
    }

    #[test]
    fn dnf_counts_are_close_to_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(201);
        let config = config_for_tests();
        for _ in 0..3 {
            let f = random_dnf(&mut rng, 14, 10, (3, 6));
            let exact = count_dnf_exact(&f) as f64;
            let out = approx_mc(
                &FormulaInput::Dnf(f),
                &config,
                LevelSearch::Linear,
                &mut rng,
            );
            assert!(
                out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
                "estimate {} vs exact {exact}",
                out.estimate
            );
            assert_eq!(out.oracle_calls, 0, "DNF path must not use the oracle");
        }
    }

    #[test]
    fn cnf_counts_are_close_to_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(202);
        let config = CountingConfig::explicit(0.8, 0.2, 60, 7);
        for _ in 0..2 {
            let f = random_k_cnf(&mut rng, 10, 18, 3);
            let exact = count_cnf_dpll(&f) as f64;
            if exact == 0.0 {
                continue;
            }
            let out = approx_mc(
                &FormulaInput::Cnf(f),
                &config,
                LevelSearch::Galloping,
                &mut rng,
            );
            assert!(
                out.estimate >= exact / 3.0 && out.estimate <= exact * 3.0,
                "estimate {} vs exact {exact}",
                out.estimate
            );
            assert!(out.oracle_calls > 0);
        }
    }

    #[test]
    fn linear_and_galloping_find_the_same_levels() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(203);
        let (f, _) = planted_dnf(&mut rng, 12, 600);
        let config = CountingConfig::explicit(0.8, 0.2, 100, 5);
        // Use the same RNG seed for both runs so the hash draws coincide.
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(42);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(42);
        let a = approx_mc(
            &FormulaInput::Dnf(f.clone()),
            &config,
            LevelSearch::Linear,
            &mut rng_a,
        );
        let b = approx_mc(
            &FormulaInput::Dnf(f),
            &config,
            LevelSearch::Galloping,
            &mut rng_b,
        );
        assert_eq!(a.per_iteration, b.per_iteration);
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn linear_and_galloping_agree_per_iteration_on_cnf() {
        // The oracle-call parity check for the incremental CNF path: with the
        // same hash draws, both level-search policies must land on exactly
        // the same (level, cell) pairs even though they visit different
        // probe sequences through the shared assumption stack.
        let mut rng = Xoshiro256StarStar::seed_from_u64(206);
        let f = random_k_cnf(&mut rng, 9, 14, 3);
        let config = CountingConfig::explicit(0.8, 0.3, 30, 5);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(77);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(77);
        let a = approx_mc(
            &FormulaInput::Cnf(f.clone()),
            &config,
            LevelSearch::Linear,
            &mut rng_a,
        );
        let b = approx_mc(
            &FormulaInput::Cnf(f),
            &config,
            LevelSearch::Galloping,
            &mut rng_b,
        );
        assert_eq!(a.per_iteration, b.per_iteration);
        assert_eq!(a.estimate, b.estimate);
        assert!(a.oracle_calls > 0 && b.oracle_calls > 0);
    }

    #[test]
    fn pooled_probes_replay_the_reference_enumeration() {
        // Every probe of the pooled path must count what a fresh
        // enumeration of its cell counts, under the same hash draws. Clause
        // densities from loose to tight and small thresholds put cells on
        // both sides of Thresh, so pool answers, partial enumerations and
        // completed levels all occur.
        use mcf0_hashing::ToeplitzHash;
        for seed in 0..24u64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(300 + seed);
            let n = 6 + (seed % 9) as usize;
            let f = random_k_cnf(&mut rng, n, n / 2 + (seed % 4) as usize * n / 2, 3);
            let config = CountingConfig::explicit(0.8, 0.3, 6 + (seed % 5) as usize * 5, 4);
            let sample = |rng: &mut Xoshiro256StarStar| ToeplitzHash::sample(rng, n, n);
            for search in [LevelSearch::Linear, LevelSearch::Galloping] {
                let mut rng_a = Xoshiro256StarStar::seed_from_u64(seed ^ 0xD1FF);
                let mut rng_b = rng_a.clone();
                let pooled = approx_mc_with_sampler(
                    &FormulaInput::Cnf(f.clone()),
                    &config,
                    search,
                    &mut rng_a,
                    sample,
                );
                let reference = approx_mc_reference(&f, &config, search, &mut rng_b, sample);
                let case = format!("seed {seed}, n {n}, {search:?}");
                assert_eq!(pooled.per_iteration, reference.per_iteration, "{case}");
                assert_eq!(pooled.estimate, reference.estimate, "{case}");
                assert!(pooled.oracle_calls <= reference.oracle_calls, "{case}");
            }
        }
    }

    #[test]
    fn galloping_uses_fewer_cell_probes_than_linear() {
        // Count probes through the closure rather than oracle calls so the
        // comparison also covers the DNF (oracle-free) path.
        let thresh = 10usize;
        let n = 30usize;
        // Synthetic monotone cell-size profile: large until level 17.
        let profile = |m: usize| if m < 17 { thresh } else { thresh - 1 };
        let mut linear_probes = 0usize;
        let mut galloping_probes = 0usize;
        let linear = search_level(LevelSearch::Linear, n, thresh, |m| {
            linear_probes += 1;
            profile(m)
        });
        let galloping = search_level(LevelSearch::Galloping, n, thresh, |m| {
            galloping_probes += 1;
            profile(m)
        });
        assert_eq!(linear.0, 17);
        assert_eq!(galloping.0, 17);
        assert!(
            galloping_probes < linear_probes,
            "galloping {galloping_probes} vs linear {linear_probes}"
        );
    }

    #[test]
    fn sparse_hash_family_counts_are_close_to_exact() {
        use mcf0_hashing::{RowDensity, SparseXorHash};
        // Sparse XOR rows trade independence for solver speed (Section 6 of
        // the paper); on random DNFs the counts should remain in the same
        // ballpark as the dense family.
        let mut rng = Xoshiro256StarStar::seed_from_u64(207);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
        for _ in 0..3 {
            let f = random_dnf(&mut rng, 14, 10, (3, 6));
            let exact = count_dnf_exact(&f) as f64;
            let n = f.num_vars();
            let out = approx_mc_with_sampler(
                &FormulaInput::Dnf(f),
                &config,
                LevelSearch::Linear,
                &mut rng,
                |rng| SparseXorHash::sample(rng, n, n, RowDensity::LogOverN(2.0)),
            );
            assert!(
                out.estimate >= exact / 3.0 && out.estimate <= exact * 3.0,
                "sparse-hash estimate {} vs exact {exact}",
                out.estimate
            );
        }
    }

    #[test]
    fn unsatisfiable_formulas_count_to_zero() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(204);
        let config = CountingConfig::explicit(0.8, 0.3, 20, 3);
        let f = mcf0_formula::DnfFormula::contradiction(8);
        let out = approx_mc(
            &FormulaInput::Dnf(f),
            &config,
            LevelSearch::Linear,
            &mut rng,
        );
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn small_solution_sets_are_counted_exactly() {
        // If |Sol(φ)| < Thresh the level stays at 0 and the count is exact.
        let mut rng = Xoshiro256StarStar::seed_from_u64(205);
        let (f, _) = planted_dnf(&mut rng, 13, 37);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
        let out = approx_mc(
            &FormulaInput::Dnf(f),
            &config,
            LevelSearch::Linear,
            &mut rng,
        );
        assert_eq!(out.estimate, 37.0);
        assert!(out.per_iteration.iter().all(|&(m, c)| m == 0 && c == 37));
    }
}
