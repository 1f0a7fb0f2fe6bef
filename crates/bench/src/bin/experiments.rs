//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mcf0-bench --bin experiments            # all experiments
//! cargo run --release -p mcf0-bench --bin experiments -- e1 e8   # a subset
//! cargo run --release -p mcf0-bench --bin experiments -- --json  # also dump JSON rows
//! ```
//!
//! Experiment ids follow DESIGN.md §3 (E1–E12). Parameters are chosen so the
//! full run finishes in a few minutes on a laptop while still exhibiting the
//! shapes the paper claims (accuracy within (1+ε), oracle-call scaling,
//! communication scaling, per-item-time scaling).

use mcf0::counting::est_based::EstBackend;
use mcf0::counting::{
    approx_mc, approx_model_count_est, approx_model_count_min, CountingConfig, FormulaInput,
    LevelSearch,
};
use mcf0::distributed::{distributed_bucketing, distributed_estimation, distributed_minimum};
use mcf0::formula::exact::{count_cnf_dpll, count_dnf_exact};
use mcf0::formula::generators::{partition_dnf, random_dnf, random_k_cnf};
use mcf0::formula::karp_luby::{karp_luby_count, KarpLubyConfig};
use mcf0::formula::weights::{DyadicWeight, WeightFn};
use mcf0::hashing::Xoshiro256StarStar;
use mcf0::streaming::{compute_f0, F0Config, SketchStrategy};
use mcf0::structured::{
    weighted_dnf_count, AffineSet, DnfSet, MultiDimProgression, MultiDimRange, Progression,
    RangeDim, StructuredMinimumF0,
};
use mcf0_bench::{print_markdown_table, ExperimentRow};
use std::time::Instant;

const SEED: u64 = 20210503; // arXiv submission date of the paper

/// An experiment entry point: regenerates one table's worth of rows.
type ExperimentFn = fn() -> Vec<ExperimentRow>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want_json = args.iter().any(|a| a == "--json");
    let requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let run = |id: &str| requested.is_empty() || requested.iter().any(|r| r == id);

    let mut all_rows: Vec<ExperimentRow> = Vec::new();
    let experiments: Vec<(&str, ExperimentFn)> = vec![
        ("e1", e1_streaming_accuracy),
        ("e2", e2_approxmc_oracle_calls),
        ("e3", e3_min_counter),
        ("e4", e4_est_counter),
        ("e5", e5_dnf_fpras_comparison),
        ("e6", e6_distributed),
        ("e7", e7_dnf_set_streams),
        ("e8", e8_ranges),
        ("e9", e9_progressions),
        ("e10", e10_affine_streams),
        ("e11", e11_weighted_dnf),
        ("e12", e12_representation_gap),
        ("e13", e13_sparse_xor_ablation),
        ("e14", e14_uniform_sampling),
        ("e15", e15_delphic_vs_hashing),
        ("e16", e16_applications),
        ("e17", e17_large_n_cnf),
        ("e18", e18_contract),
    ];

    for (id, runner) in experiments {
        if !run(id) {
            continue;
        }
        println!("\n## Experiment {}\n", id.to_uppercase());
        let start = Instant::now();
        let rows = runner();
        print_markdown_table(&rows);
        println!(
            "\n({} rows, {:.1}s)",
            rows.len(),
            start.elapsed().as_secs_f64()
        );
        all_rows.extend(rows);
    }

    if want_json {
        println!("\n## JSON rows\n");
        for row in &all_rows {
            println!("{}", serde_json::to_string(row).expect("rows serialise"));
        }
    }
}

/// E1 — the three streaming sketches are (ε, δ) estimators of F0.
fn e1_streaming_accuracy() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED);
    let universe_bits = 32;
    for &(distinct, length) in &[(1_000usize, 4_000usize), (50_000, 150_000)] {
        let stream = mcf0::streaming::workloads::planted_f0_stream(
            &mut rng,
            universe_bits,
            distinct,
            length,
        );
        for (name, strategy, config) in [
            (
                "Bucketing",
                SketchStrategy::Bucketing,
                F0Config::explicit(0.8, 0.2, 150, 9),
            ),
            (
                "Minimum",
                SketchStrategy::Minimum,
                F0Config::explicit(0.8, 0.2, 150, 9),
            ),
            (
                "Estimation",
                SketchStrategy::Estimation,
                F0Config::explicit(0.8, 0.2, 48, 5),
            ),
        ] {
            let start = Instant::now();
            let outcome = compute_f0(strategy, universe_bits, &config, &stream, &mut rng);
            rows.push(
                ExperimentRow::new(
                    "E1",
                    format!("F0={distinct}, stream={length}, eps={}", config.epsilon),
                    name,
                    Some(distinct as f64),
                    outcome.estimate,
                )
                .with_metric("sketch_kib", outcome.space_bits as f64 / 8.0 / 1024.0),
            );
            let _ = start;
        }
    }
    rows
}

/// E2 — ApproxMC: accuracy and the linear-vs-binary-search oracle-call gap.
fn e2_approxmc_oracle_calls() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 2);
    let config = CountingConfig::explicit(0.8, 0.2, 60, 7);
    for &n in &[10usize, 12] {
        let formula = random_k_cnf(&mut rng, n, 2 * n, 3);
        let exact = count_cnf_dpll(&formula) as f64;
        if exact == 0.0 {
            continue;
        }
        for (name, search) in [
            ("ApproxMC linear", LevelSearch::Linear),
            ("ApproxMC galloping", LevelSearch::Galloping),
        ] {
            let out = approx_mc(
                &FormulaInput::Cnf(formula.clone()),
                &config,
                search,
                &mut rng,
            );
            rows.push(
                ExperimentRow::new(
                    "E2",
                    format!("3-CNF n={n}, m={}", 2 * n),
                    name,
                    Some(exact),
                    out.estimate,
                )
                .with_metric("oracle_calls", out.oracle_calls as f64),
            );
        }
    }
    rows
}

/// E3 — ApproxModelCountMin is a PAC counter and an FPRAS for DNF.
fn e3_min_counter() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 3);
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    for &(n, k) in &[(16usize, 10usize), (20, 20), (24, 12)] {
        let formula = random_dnf(&mut rng, n, k, (4, 8));
        let exact = count_dnf_exact(&formula) as f64;
        let start = Instant::now();
        let out = approx_model_count_min(&FormulaInput::Dnf(formula), &config, &mut rng);
        rows.push(
            ExperimentRow::new(
                "E3",
                format!("DNF n={n}, k={k}"),
                "ApproxModelCountMin",
                Some(exact),
                out.estimate,
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );
    }
    rows
}

/// E4 — ApproxModelCountEst with a valid r is a PAC counter.
fn e4_est_counter() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 4);
    // Enumerative backend (genuine s-wise hash) on DNF.
    {
        let formula = random_dnf(&mut rng, 14, 8, (4, 7));
        let exact = count_dnf_exact(&formula) as f64;
        let r = (exact * 2.0).log2().ceil().max(1.0) as u32;
        let config = CountingConfig::explicit(0.5, 0.2, 60, 5);
        let out = approx_model_count_est(
            &FormulaInput::Dnf(formula),
            &config,
            r,
            EstBackend::Enumerative,
            &mut rng,
        );
        rows.push(
            ExperimentRow::new(
                "E4",
                format!("DNF n=14, k=8, r={r}, s-wise hash"),
                "ApproxModelCountEst (enumerative)",
                Some(exact),
                out.estimate,
            )
            .with_metric("oracle_calls", out.oracle_calls as f64),
        );
    }
    // SAT backend (affine hash constraints) on CNF.
    {
        let formula = random_k_cnf(&mut rng, 10, 16, 3);
        let exact = count_cnf_dpll(&formula) as f64;
        if exact >= 4.0 {
            let r = (exact * 2.0).log2().ceil().max(1.0) as u32;
            let config = CountingConfig::explicit(0.5, 0.3, 40, 5);
            let out = approx_model_count_est(
                &FormulaInput::Cnf(formula),
                &config,
                r,
                EstBackend::SatOracle,
                &mut rng,
            );
            rows.push(
                ExperimentRow::new(
                    "E4",
                    format!("3-CNF n=10, m=16, r={r}, XOR hash"),
                    "ApproxModelCountEst (SAT oracle)",
                    Some(exact),
                    out.estimate,
                )
                .with_metric("oracle_calls", out.oracle_calls as f64),
            );
        }
    }
    rows
}

/// E5 — hashing-based DNF FPRAS versus the Karp–Luby Monte-Carlo baseline.
fn e5_dnf_fpras_comparison() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 5);
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    for &k in &[10usize, 40, 160] {
        let formula = random_dnf(&mut rng, 22, k, (5, 10));
        let exact = count_dnf_exact(&formula) as f64;
        let params = format!("DNF n=22, k={k}");

        let start = Instant::now();
        let bucketing = approx_mc(
            &FormulaInput::Dnf(formula.clone()),
            &config,
            LevelSearch::Galloping,
            &mut rng,
        );
        rows.push(
            ExperimentRow::new(
                "E5",
                params.clone(),
                "ApproxMC (Bucketing)",
                Some(exact),
                bucketing.estimate,
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );

        let start = Instant::now();
        let minimum =
            approx_model_count_min(&FormulaInput::Dnf(formula.clone()), &config, &mut rng);
        rows.push(
            ExperimentRow::new(
                "E5",
                params.clone(),
                "ApproxModelCountMin",
                Some(exact),
                minimum.estimate,
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );

        let start = Instant::now();
        let kl = karp_luby_count(&formula, &KarpLubyConfig::new(0.8, 0.2), &mut rng);
        rows.push(
            ExperimentRow::new("E5", params, "Karp–Luby", Some(exact), kl.estimate)
                .with_metric("seconds", start.elapsed().as_secs_f64()),
        );
    }
    rows
}

/// E6 — distributed DNF counting: communication versus number of sites.
fn e6_distributed() -> Vec<ExperimentRow> {
    use mcf0::distributed::estimation_r_policy;

    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 6);
    let formula = random_dnf(&mut rng, 20, 48, (4, 9));
    let exact = count_dnf_exact(&formula) as f64;
    let config = CountingConfig::explicit(0.8, 0.2, 150, 7);
    let est_config = CountingConfig::explicit(0.5, 0.2, 48, 5);
    for &k in &[2usize, 4, 8, 16] {
        let sites = partition_dnf(&mut rng, &formula, k);
        // The Estimation protocol's r comes from the cheap per-site F0 lower
        // bound (greedy disjoint-term packing), clamped to the n-bit hash
        // range — deriving it from the exact count pushed r past n on this
        // near-saturating workload and collapsed the estimate to −0.0.
        let r = estimation_r_policy(&sites);
        let params = format!("n=20, terms=48, sites={k}");

        let b = distributed_bucketing(&sites, &config, &mut rng);
        rows.push(
            ExperimentRow::new(
                "E6",
                params.clone(),
                "Distributed Bucketing",
                Some(exact),
                b.estimate,
            )
            .with_metric("total_bits", b.ledger.total_bits() as f64),
        );
        let m = distributed_minimum(&sites, &config, &mut rng);
        rows.push(
            ExperimentRow::new(
                "E6",
                params.clone(),
                "Distributed Minimum",
                Some(exact),
                m.estimate,
            )
            .with_metric("total_bits", m.ledger.total_bits() as f64),
        );
        let e = distributed_estimation(&sites, &est_config, r, &mut rng);
        rows.push(
            ExperimentRow::new(
                "E6",
                params,
                "Distributed Estimation",
                Some(exact),
                e.estimate,
            )
            .with_metric("total_bits", e.ledger.total_bits() as f64),
        );
    }
    rows
}

/// E7 — F0 over DNF set streams (Theorem 5).
fn e7_dnf_set_streams() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 7);
    let n = 20;
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    for &items in &[10usize, 40] {
        let mut sketch = StructuredMinimumF0::new(n, &config, &mut rng);
        let mut union = mcf0::formula::DnfFormula::contradiction(n);
        let start = Instant::now();
        for _ in 0..items {
            let f = random_dnf(&mut rng, n, 5, (6, 10));
            union = union.or(&f);
            sketch.process_item(&DnfSet::new(f));
        }
        let per_item_ms = start.elapsed().as_secs_f64() * 1000.0 / items as f64;
        let exact = count_dnf_exact(&union) as f64;
        rows.push(
            ExperimentRow::new(
                "E7",
                format!("n={n}, items={items}, k=5 per item"),
                "StructuredMinimumF0 (DNF sets)",
                Some(exact),
                sketch.estimate(),
            )
            .with_metric("ms_per_item", per_item_ms),
        );
    }
    rows
}

/// E8 — range-efficient F0 over d-dimensional ranges (Theorem 6), against a
/// naive per-point baseline where feasible.
fn e8_ranges() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 8);
    let bits = 10;
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    for &d in &[1usize, 2, 3] {
        let universe_bits = bits * d;
        let items = 25usize;
        let ranges: Vec<MultiDimRange> = (0..items)
            .map(|_| {
                let dims = (0..d)
                    .map(|_| {
                        let width = 1 + rng.gen_range(1 << (bits - 2));
                        let lo = rng.gen_range((1u64 << bits) - width);
                        RangeDim::new(lo, lo + width - 1, bits)
                    })
                    .collect();
                MultiDimRange::new(dims)
            })
            .collect();
        let mut sketch = StructuredMinimumF0::new(universe_bits, &config, &mut rng);
        let start = Instant::now();
        for r in &ranges {
            sketch.process_item(r);
        }
        let per_item_ms = start.elapsed().as_secs_f64() * 1000.0 / items as f64;
        // Ground truth by explicit point enumeration (feasible at 10·d ≤ 30 bits
        // because individual ranges are small).
        let exact = exact_union_of_ranges(&ranges);
        let terms: u128 = ranges.iter().map(|r| r.term_count()).sum();
        rows.push(
            ExperimentRow::new(
                "E8",
                format!("d={d}, {bits}-bit dims, items={items}, total DNF terms={terms}"),
                "StructuredMinimumF0 (ranges)",
                Some(exact as f64),
                sketch.estimate(),
            )
            .with_metric("ms_per_item", per_item_ms),
        );
    }
    rows
}

/// Exact size of a union of axis-aligned boxes by coordinate compression:
/// split each axis at every box endpoint, then a union cell of the compressed
/// grid is either fully inside or fully outside every box, so summing the
/// volumes of covered cells gives the exact union size without enumerating
/// points (the boxes in E8 hold millions of points each).
fn exact_union_of_ranges(ranges: &[MultiDimRange]) -> u64 {
    if ranges.is_empty() {
        return 0;
    }
    let d = ranges[0].num_dims();
    // Sorted, deduplicated cut points per dimension: every lo and every hi+1.
    let mut cuts: Vec<Vec<u64>> = vec![Vec::new(); d];
    for r in ranges {
        for (j, dim) in r.dims().iter().enumerate() {
            cuts[j].push(dim.lo);
            cuts[j].push(dim.hi + 1);
        }
    }
    for c in &mut cuts {
        c.sort_unstable();
        c.dedup();
    }
    // Walk the grid of cells (product of consecutive cut-point intervals).
    let cells_per_dim: Vec<usize> = cuts.iter().map(|c| c.len() - 1).collect();
    let mut index = vec![0usize; d];
    let mut union: u64 = 0;
    'outer: loop {
        // Cell = Π_j [cuts[j][index[j]], cuts[j][index[j] + 1])
        let lows: Vec<u64> = (0..d).map(|j| cuts[j][index[j]]).collect();
        let covered = ranges.iter().any(|r| {
            r.dims()
                .iter()
                .zip(&lows)
                .all(|(dim, &lo)| lo >= dim.lo && lo <= dim.hi)
        });
        if covered {
            let volume: u64 = (0..d)
                .map(|j| cuts[j][index[j] + 1] - cuts[j][index[j]])
                .product();
            union += volume;
        }
        // Mixed-radix increment over cells.
        let mut dim = 0;
        loop {
            if dim == d {
                break 'outer;
            }
            index[dim] += 1;
            if index[dim] < cells_per_dim[dim] {
                break;
            }
            index[dim] = 0;
            dim += 1;
        }
    }
    union
}

/// E9 — arithmetic progressions with power-of-two strides (Corollary 1).
fn e9_progressions() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 9);
    let bits = 12;
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    let items: Vec<MultiDimProgression> = (0..15)
        .map(|_| {
            let a = rng.gen_range(1 << (bits - 1));
            let b = a + rng.gen_range(1 << (bits - 1));
            let stride = rng.gen_range(4) as u32;
            MultiDimProgression::new(vec![Progression::new(
                a,
                b.min((1 << bits) - 1),
                stride,
                bits,
            )])
        })
        .collect();
    let mut sketch = StructuredMinimumF0::new(bits, &config, &mut rng);
    let mut union = std::collections::HashSet::new();
    for p in &items {
        for v in 0..(1u64 << bits) {
            if p.contains_point(&[v]) {
                union.insert(v);
            }
        }
        sketch.process_item(p);
    }
    rows.push(ExperimentRow::new(
        "E9",
        format!("1-dim progressions, {bits}-bit, items={}", items.len()),
        "StructuredMinimumF0 (progressions)",
        Some(union.len() as f64),
        sketch.estimate(),
    ));
    rows
}

/// E10 — F0 over affine-space streams (Theorem 7).
fn e10_affine_streams() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 10);
    let n = 16;
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    let items: Vec<AffineSet> = (0..12)
        .map(|_| AffineSet::random_consistent(&mut rng, n, 5))
        .collect();
    let mut sketch = StructuredMinimumF0::new(n, &config, &mut rng);
    let start = Instant::now();
    for item in &items {
        sketch.process_item(item);
    }
    let per_item_ms = start.elapsed().as_secs_f64() * 1000.0 / items.len() as f64;
    // Ground truth by membership testing over the 2^16 universe.
    let mut union = 0u64;
    for v in 0..(1u64 << n) {
        let x = mcf0::gf2::BitVec::from_u64(v, n);
        if items.iter().any(|i| i.system().contains(&x)) {
            union += 1;
        }
    }
    rows.push(
        ExperimentRow::new(
            "E10",
            format!("n={n}, items={}, 5 constraints each", items.len()),
            "StructuredMinimumF0 (affine spaces)",
            Some(union as f64),
            sketch.estimate(),
        )
        .with_metric("ms_per_item", per_item_ms),
    );
    rows
}

/// E11 — weighted #DNF via the d-dimensional-range reduction.
fn e11_weighted_dnf() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 11);
    let n = 10;
    let formula = random_dnf(&mut rng, n, 6, (2, 4));
    let weights = WeightFn::new(
        (0..n)
            .map(|_| DyadicWeight::new(1 + rng.gen_range(14), 4))
            .collect(),
    );
    let exact = weights.weighted_count_brute_force(&formula);
    let config = CountingConfig::explicit(0.4, 0.2, 600, 9);
    let out = weighted_dnf_count(&formula, &weights, &config, &mut rng);
    rows.push(
        ExperimentRow::new(
            "E11",
            format!("weighted DNF n={n}, k=6, 4-bit weights"),
            "F0-over-ranges reduction",
            Some(exact),
            out.weight,
        )
        .with_metric("f0_estimate", out.f0_estimate),
    );
    rows
}

/// E12 — Observation 1 vs Observation 2: the DNF/CNF representation gap.
fn e12_representation_gap() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let bits = 8;
    for d in 1..=4usize {
        let worst = MultiDimRange::worst_case(bits, d);
        rows.push(
            ExperimentRow::new(
                "E12",
                format!("worst-case range [1, 2^{bits}−1]^{d}"),
                "DNF terms vs CNF clauses",
                None,
                worst.term_count() as f64,
            )
            .with_metric("cnf_clauses", worst.to_cnf().num_clauses() as f64),
        );
    }
    rows
}

/// E13 — sparse-XOR ablation (Section 6 "Sparse XORs"): estimate accuracy and
/// average constraint width for dense versus sparse hash families.
fn e13_sparse_xor_ablation() -> Vec<ExperimentRow> {
    use mcf0::counting::approx_mc_with_sampler;
    use mcf0::hashing::{RowDensity, SparseXorHash, ToeplitzHash, XorHash};

    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 13);
    let n = 12usize;
    let formula = random_k_cnf(&mut rng, n, 20, 3);
    let exact = count_cnf_dpll(&formula) as f64;
    let config = CountingConfig::explicit(0.8, 0.2, 60, 7);
    let input = FormulaInput::Cnf(formula);

    // Toeplitz (the paper's default).
    let out = approx_mc_with_sampler(&input, &config, LevelSearch::Galloping, &mut rng, |rng| {
        ToeplitzHash::sample(rng, n, n)
    });
    rows.push(
        ExperimentRow::new(
            "E13",
            format!("3-CNF n={n}, m=20"),
            "H_Toeplitz (avg row weight ≈ n/2)",
            Some(exact),
            out.estimate,
        )
        .with_metric("oracle_calls", out.oracle_calls as f64),
    );

    // Fully random XOR.
    let out = approx_mc_with_sampler(&input, &config, LevelSearch::Galloping, &mut rng, |rng| {
        XorHash::sample(rng, n, n)
    });
    rows.push(
        ExperimentRow::new(
            "E13",
            format!("3-CNF n={n}, m=20"),
            "H_xor (avg row weight ≈ n/2)",
            Some(exact),
            out.estimate,
        )
        .with_metric("oracle_calls", out.oracle_calls as f64),
    );

    // Sparse rows at two densities; also report the measured average width.
    for (label, density) in [
        ("H_sparse log/n (c = 2)", RowDensity::LogOverN(2.0)),
        ("H_sparse p = 0.2", RowDensity::Constant(0.2)),
    ] {
        let mut weights = Vec::new();
        let out =
            approx_mc_with_sampler(&input, &config, LevelSearch::Galloping, &mut rng, |rng| {
                let h = SparseXorHash::sample(rng, n, n, density);
                weights.push(h.average_row_weight());
                h
            });
        let avg_weight = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
        rows.push(
            ExperimentRow::new(
                "E13",
                format!("3-CNF n={n}, m=20"),
                label,
                Some(exact),
                out.estimate,
            )
            .with_metric("avg_row_weight", avg_weight),
        );
    }
    rows
}

/// E14 — almost-uniform sampling (Section 6 "Sampling"): empirical uniformity
/// of the UniGen-style sampler built from the Bucketing ingredients.
fn e14_uniform_sampling() -> Vec<ExperimentRow> {
    use mcf0::counting::{ApproxSampler, SamplerConfig};
    use mcf0::formula::exact::enumerate_dnf_solutions;
    use mcf0::formula::generators::planted_dnf;
    use std::collections::HashMap;

    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 14);
    for &solutions_planted in &[24usize, 96] {
        let (formula, _) = planted_dnf(&mut rng, 14, solutions_planted);
        let solutions = enumerate_dnf_solutions(&formula);
        let mut sampler = ApproxSampler::new(
            FormulaInput::Dnf(formula),
            SamplerConfig::default(),
            &mut rng,
        )
        .expect("satisfiable");
        let draws = 3000;
        let samples = sampler.sample_many(draws, &mut rng);
        let mut frequency: HashMap<String, usize> = HashMap::new();
        for s in &samples {
            *frequency.entry(s.to_string()).or_default() += 1;
        }
        let expected = samples.len() as f64 / solutions.len() as f64;
        let max_count = frequency.values().copied().max().unwrap_or(0) as f64;
        rows.push(
            ExperimentRow::new(
                "E14",
                format!("planted DNF, |Sol| = {}, {} draws", solutions.len(), draws),
                "ApproxSampler (hashing-based)",
                Some(solutions.len() as f64),
                frequency.len() as f64,
            )
            .with_metric("max_over_expected_frequency", max_count / expected),
        );
    }
    rows
}

/// E15 — Remark 2: the sampling-based APS estimator versus the paper's
/// hashing-based sketch on the same Delphic range stream.
fn e15_delphic_vs_hashing() -> Vec<ExperimentRow> {
    use mcf0::structured::{ApsConfig, ApsEstimator};
    use std::collections::HashSet;

    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 15);
    let bits = 16usize;
    let items: Vec<MultiDimRange> = (0..120u64)
        .map(|_| {
            let lo = rng.gen_range(1 << bits);
            let len = rng.gen_range(3000) + 1;
            let hi = (lo + len).min((1 << bits) - 1);
            MultiDimRange::new(vec![RangeDim::new(lo, hi, bits)])
        })
        .collect();
    let mut exact: HashSet<u64> = HashSet::new();
    for r in &items {
        let d = &r.dims()[0];
        exact.extend(d.lo..=d.hi);
    }

    let config = CountingConfig::explicit(0.25, 0.2, 1536, 7);
    let mut hashing = StructuredMinimumF0::new(bits, &config, &mut rng);
    let start = Instant::now();
    for r in &items {
        hashing.process_item(r);
    }
    let hashing_ms = start.elapsed().as_secs_f64() * 1000.0 / items.len() as f64;
    rows.push(
        ExperimentRow::new(
            "E15",
            format!("120 ranges over 2^{bits}"),
            "hashing (StructuredMinimumF0)",
            Some(exact.len() as f64),
            hashing.estimate(),
        )
        .with_metric("ms_per_item", hashing_ms),
    );

    let mut aps = ApsEstimator::new(bits, ApsConfig::for_epsilon(0.25));
    let start = Instant::now();
    for r in &items {
        aps.process_item(r, &mut rng);
    }
    let aps_ms = start.elapsed().as_secs_f64() * 1000.0 / items.len() as f64;
    rows.push(
        ExperimentRow::new(
            "E15",
            format!("120 ranges over 2^{bits}"),
            "sampling (APS-Estimator)",
            Some(exact.len() as f64),
            aps.estimate(),
        )
        .with_metric("ms_per_item", aps_ms),
    );
    rows
}

/// E17 — large-`n` CNF workloads on the CDCL oracle. No ground truth: at
/// n ≥ 36 the exact counts are out of brute-force reach, which is exactly
/// the regime the hashing algorithms exist for; the table reports the
/// estimates with their oracle-call and conflict budgets. The chronological
/// engine needed minutes to forever on these instances
/// (`BENCH_solver.json`, `chrono_baseline`).
fn e17_large_n_cnf() -> Vec<ExperimentRow> {
    use mcf0::counting::approx_mc_on_oracle;
    use mcf0::hashing::ToeplitzHash;
    use mcf0::sat::{find_max_range_cnf, find_min_cnf, SatOracle, SolutionOracle};

    let mut rows = Vec::new();
    let config = CountingConfig::explicit(0.8, 0.2, 40, 3);

    // ApproxMC at n = 36 and 40 (levels reach ~20–24 XOR rows).
    for &n in &[36usize, 40] {
        let f = mcf0_bench::large_n::approxmc_formula(n);
        let input = FormulaInput::Cnf(f.clone());
        let mut oracle = SatOracle::new(f);
        let mut hash_rng = mcf0_bench::large_n::approxmc_hash_rng();
        let start = Instant::now();
        let out = approx_mc_on_oracle(
            &input,
            &config,
            LevelSearch::Galloping,
            &mut hash_rng,
            |rng| ToeplitzHash::sample(rng, n, n),
            Some(&mut oracle as &mut dyn SolutionOracle),
        );
        rows.push(
            ExperimentRow::new(
                "E17",
                format!(
                    "3-CNF n={n}, m={}, {} oracle calls, {} conflicts",
                    2 * n,
                    out.oracle_calls,
                    oracle.solver_stats().conflicts
                ),
                "ApproxMC (CDCL oracle)",
                None,
                out.estimate,
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );
    }

    // FindMin at n = 40 under a 3n-bit hash (the Minimum counter's pattern).
    {
        let (f, h, p) = mcf0_bench::large_n::findmin_n40();
        let mut oracle = SatOracle::new(f);
        let start = Instant::now();
        let minima = find_min_cnf(&mut oracle, &h, p);
        rows.push(
            ExperimentRow::new(
                "E17",
                format!(
                    "3-CNF n=40, m=80, p=8, {} oracle calls, {} conflicts",
                    oracle.stats().sat_calls,
                    oracle.solver_stats().conflicts
                ),
                "FindMin prefix search (CDCL oracle)",
                None,
                minima.len() as f64,
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );
    }

    // FindMaxRange at n = 56 (the Estimation counter's pattern).
    {
        let (f, h) = mcf0_bench::large_n::findmaxrange_n56();
        let mut oracle = SatOracle::new(f);
        let start = Instant::now();
        let max_tz = find_max_range_cnf(&mut oracle, &h);
        rows.push(
            ExperimentRow::new(
                "E17",
                format!(
                    "3-CNF n=56, m=112, {} oracle calls, {} conflicts",
                    oracle.stats().sat_calls,
                    oracle.solver_stats().conflicts
                ),
                "FindMaxRange binary search (CDCL oracle)",
                None,
                max_tz.map_or(-1.0, |v| v as f64),
            )
            .with_metric("seconds", start.elapsed().as_secs_f64()),
        );
    }
    rows
}

/// E16 — the Section 1 applications reduced to range-efficient F0:
/// distinct summation, max-dominance norm and triangle counting.
fn e16_applications() -> Vec<ExperimentRow> {
    use mcf0::structured::{
        exact_triangle_moments, DistinctSummation, MaxDominanceNorm, TriangleCounter,
    };
    use std::collections::HashMap;

    let mut rows = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 16);
    let config = CountingConfig::explicit(0.3, 0.2, 1100, 7);

    // Distinct summation.
    let mut summation = DistinctSummation::new(12, 10, &config, &mut rng);
    let mut readings: HashMap<u64, u64> = HashMap::new();
    for _ in 0..2000 {
        let key = rng.gen_range(1 << 12);
        let value = *readings
            .entry(key)
            .or_insert_with(|| rng.gen_range(900) + 1);
        summation.add(key, value);
    }
    let exact_sum: u64 = readings.values().sum();
    rows.push(
        ExperimentRow::new(
            "E16",
            "2000 sensor reports, 12-bit keys, values ≤ 900".to_string(),
            "distinct summation via range F0",
            Some(exact_sum as f64),
            summation.estimate(),
        )
        .with_metric("pairs", summation.pairs_processed() as f64),
    );

    // Max-dominance norm.
    let mut norm = MaxDominanceNorm::new(10, 9, &config, &mut rng);
    let mut maxima: HashMap<u64, u64> = HashMap::new();
    for _ in 0..3000 {
        let index = rng.gen_range(1 << 10);
        let value = rng.gen_range(500) + 1;
        norm.add(index, value);
        let best = maxima.entry(index).or_default();
        *best = (*best).max(value);
    }
    let exact_norm: u64 = maxima.values().sum();
    rows.push(
        ExperimentRow::new(
            "E16",
            "3000 observations, 10-bit indices, values ≤ 500".to_string(),
            "max-dominance norm via range F0",
            Some(exact_norm as f64),
            norm.estimate(),
        )
        .with_metric("pairs", norm.pairs_processed() as f64),
    );

    // Triangle counting on a dense random graph.
    let n = 13u64;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_f64() < 0.7 {
                edges.push((u, v));
            }
        }
    }
    let exact = exact_triangle_moments(&edges, n);
    let mut counter = TriangleCounter::new(n, &config, &mut rng);
    for &(u, v) in &edges {
        counter.add_edge(u, v);
    }
    let estimate = counter.estimate();
    rows.push(
        ExperimentRow::new(
            "E16",
            format!("G(n={n}, p=0.7), {} edges", edges.len()),
            "triangle counting via F0 + F1 + AMS F2",
            Some(exact.triangles),
            estimate.triangles,
        )
        .with_metric("f0_estimate", estimate.f0),
    );
    rows
}

/// E18 — the (ε, δ) contract as a statistic: the observed failure rate
/// `|est − C| > ε·C` over seeded trials at the paper's `Thresh` and `t`, for
/// the ApproxMC, Min and Est counters and the Minimum and Bucketing sketches, with its one-sided
/// 99 % Clopper–Pearson upper bound (which `crates/bench/tests/contract.rs`
/// gates at δ) and the worst relative error seen, which says how
/// conservative `Thresh` and `t` are.
fn e18_contract() -> Vec<ExperimentRow> {
    use mcf0::streaming::{BucketingF0, MinimumF0};
    use mcf0_bench::contract::{
        cnf_inputs, counter_trials, dnf_inputs, fewest_trials, sketch_trials, Counter, Trials,
        GRID, STREAM_BITS,
    };
    type Inputs = fn(usize) -> Vec<(FormulaInput, f64)>;
    let row = |parameters: String, algorithm: &str, result: Trials| {
        ExperimentRow::new(
            "E18",
            parameters,
            &format!(
                "{algorithm} failure rate (99% upper bound {:.3})",
                result.upper_bound()
            ),
            None,
            result.rate(),
        )
        .with_metric("worst_error_pct", 100.0 * result.worst_error)
    };

    let dnf = ("DNF n=12", dnf_inputs as Inputs);
    let cnf = ("3-CNF n=14", cnf_inputs as Inputs);
    // Three whole grids, then one cell each for the Est counter on DNF and
    // the Min counter on CNF.
    let mut cells = Vec::new();
    for (counter, family) in [
        (Counter::ApproxMc, dnf),
        (Counter::ApproxMc, cnf),
        (Counter::Min, dnf),
    ] {
        cells.extend(GRID.map(|cell| (counter, family, cell)));
    }
    cells.push((Counter::Est, dnf, GRID[0]));
    cells.push((Counter::Min, cnf, GRID[0]));
    let mut rows = Vec::new();
    for (counter, (family, inputs), (epsilon, delta)) in cells {
        let config = CountingConfig::paper(epsilon, delta);
        let trials = fewest_trials(delta);
        let result = counter_trials(counter, &inputs(config.thresh), epsilon, delta, trials);
        rows.push(row(
            format!(
                "{family}, eps={epsilon}, delta={delta}, Thresh={}, t={}, {trials} trials",
                config.thresh, config.rows
            ),
            counter.name(),
            result,
        ));
    }
    // The streaming half: the tier-1 cell at F0 = 600, then the whole grid.
    let cells = std::iter::once((600, GRID[0])).chain(GRID.iter().map(|&cell| (2000, cell)));
    for (distinct, (epsilon, delta)) in cells {
        let config = F0Config::paper(epsilon, delta);
        let trials = fewest_trials(delta);
        let parameters = format!(
            "stream w={STREAM_BITS} F0={distinct}, eps={epsilon}, delta={delta}, Thresh={}, t={}, {trials} trials",
            config.thresh, config.rows
        );
        let minimum = sketch_trials(MinimumF0::new, distinct, epsilon, delta, trials);
        rows.push(row(parameters.clone(), "Minimum", minimum));
        let bucketing = sketch_trials(BucketingF0::new, distinct, epsilon, delta, trials);
        rows.push(row(parameters, "Bucketing", bucketing));
    }
    rows
}
