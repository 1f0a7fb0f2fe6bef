//! Shared workload builders and result-row types for the pin table
//! (`tests/pins.rs`), the E18 contract gate and the `experiments` harness.
//!
//! Every experiment in EXPERIMENTS.md is regenerated by `cargo run --release
//! -p mcf0-bench --bin experiments -- <id>`; `cargo test -p mcf0-bench --test
//! pins` checks every pinned value. Time is measured by perfbench alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcf0::formula::DnfFormula;
use mcf0::hashing::Xoshiro256StarStar;
use serde::Serialize;

/// One row of an experiment table (serialised to JSON by the harness so the
/// EXPERIMENTS.md tables can be regenerated mechanically).
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentRow {
    /// Experiment identifier (e.g. "E1").
    pub experiment: String,
    /// Workload / parameter description for the row.
    pub parameters: String,
    /// Name of the algorithm or strategy measured.
    pub algorithm: String,
    /// Ground-truth value of the quantity being estimated (if known).
    pub ground_truth: Option<f64>,
    /// The estimate produced.
    pub estimate: f64,
    /// Relative error of the estimate (if ground truth is known).
    pub relative_error: Option<f64>,
    /// Auxiliary metric (oracle calls, bits communicated, items/s, …).
    pub metric: Option<f64>,
    /// Name of the auxiliary metric.
    pub metric_name: Option<String>,
}

impl ExperimentRow {
    /// Builds a row, deriving the relative error when ground truth is known.
    pub fn new(
        experiment: &str,
        parameters: String,
        algorithm: &str,
        ground_truth: Option<f64>,
        estimate: f64,
    ) -> Self {
        let relative_error = ground_truth
            .filter(|&t| t != 0.0)
            .map(|t| (estimate - t).abs() / t);
        ExperimentRow {
            experiment: experiment.to_string(),
            parameters,
            algorithm: algorithm.to_string(),
            ground_truth,
            estimate,
            relative_error,
            metric: None,
            metric_name: None,
        }
    }

    /// Attaches an auxiliary metric to the row.
    pub fn with_metric(mut self, name: &str, value: f64) -> Self {
        self.metric = Some(value);
        self.metric_name = Some(name.to_string());
        self
    }
}

/// Prints a slice of rows as a Markdown table (the format EXPERIMENTS.md
/// embeds).
pub fn print_markdown_table(rows: &[ExperimentRow]) {
    println!(
        "| experiment | parameters | algorithm | ground truth | estimate | rel. error | metric |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {:.4} | {} | {} |",
            r.experiment,
            r.parameters,
            r.algorithm,
            r.ground_truth
                .map_or("–".to_string(), |v| format!("{v:.1}")),
            r.estimate,
            r.relative_error
                .map_or("–".to_string(), |v| format!("{:.1}%", 100.0 * v)),
            match (&r.metric, &r.metric_name) {
                (Some(v), Some(n)) => format!("{n} = {v:.1}"),
                _ => "–".to_string(),
            }
        );
    }
}

/// A deterministic medium-size DNF workload shared by the pins and tests.
pub fn bench_dnf(num_vars: usize, num_terms: usize, seed: u64) -> DnfFormula {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    mcf0::formula::generators::random_dnf(&mut rng, num_vars, num_terms, (3, 7))
}

/// The seeded large-`n` CNF-XOR workloads the CDCL engine unlocked
/// (EXPERIMENTS.md E17): one canonical constructor per instance, shared by
/// the pin table and the E17 experiment.
pub mod large_n {
    use mcf0::formula::generators::random_k_cnf;
    use mcf0::formula::CnfFormula;
    use mcf0::hashing::{ToeplitzHash, Xoshiro256StarStar};

    /// FindMin at n = 40 under a 120-bit hash (p = 8).
    pub fn findmin_n40() -> (CnfFormula, ToeplitzHash, usize) {
        findmin(40, 5656)
    }

    /// FindMin at n = 48 under a 144-bit hash (p = 8).
    pub fn findmin_n48() -> (CnfFormula, ToeplitzHash, usize) {
        findmin(48, 5656)
    }

    fn findmin(n: usize, seed: u64) -> (CnfFormula, ToeplitzHash, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let f = random_k_cnf(&mut rng, n, 2 * n, 3);
        let h = ToeplitzHash::sample(&mut rng, n, 3 * n);
        (f, h, 8)
    }

    /// FindMaxRange at n = 56.
    pub fn findmaxrange_n56() -> (CnfFormula, ToeplitzHash) {
        let n = 56;
        let mut rng = Xoshiro256StarStar::seed_from_u64(6464);
        let f = random_k_cnf(&mut rng, n, 2 * n, 3);
        let h = ToeplitzHash::sample(&mut rng, n, n);
        (f, h)
    }

    /// The ApproxMC formula family (m = 2n random 3-CNF, seed 4848); the
    /// hash draws come from a separate seed-11 RNG so every `n` sees the
    /// same sequence. The pin table pins n = 44; E17 also reports n = 36 and
    /// 40.
    pub fn approxmc_formula(n: usize) -> CnfFormula {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4848);
        random_k_cnf(&mut rng, n, 2 * n, 3)
    }

    /// The RNG the ApproxMC large-`n` runs draw their hashes from.
    pub fn approxmc_hash_rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(11)
    }
}

/// E18: the paper's (ε, δ) contract checked as a statistic. Each trial runs
/// a counter with `CountingConfig::paper(ε, δ)`, or an F0 sketch with
/// `F0Config::paper(ε, δ)`, on fresh hash draws and fails when
/// `|est − C| > ε·C` for the exact count or F0 `C`. The contract holds
/// on a grid cell when the one-sided 99 % Clopper–Pearson upper bound on
/// the failure rate is at most δ. `crates/bench/tests/contract.rs` gates it
/// and the `experiments` harness prints it.
pub mod contract {
    use mcf0::counting::est_based::{choose_r, EstBackend};
    use mcf0::counting::{
        approx_mc, approx_model_count_est, approx_model_count_min, rough_log2_estimate,
        CountingConfig, FormulaInput, LevelSearch,
    };
    use mcf0::formula::exact::{count_cnf_dpll, count_dnf_exact};
    use mcf0::formula::generators::{random_dnf, random_k_cnf};
    use mcf0::hashing::Xoshiro256StarStar;
    use mcf0::streaming::workloads::planted_f0_stream;
    use mcf0::streaming::{F0Config, F0Sketch};

    /// The (ε, δ) grid, shared by both halves.
    pub const GRID: [(f64, f64); 4] = [(0.8, 0.2), (0.8, 0.1), (0.5, 0.2), (0.5, 0.1)];

    /// The confidence of the gate's upper bound.
    pub const CONFIDENCE: f64 = 0.99;

    /// Failures out of trials on one grid cell.
    #[derive(Clone, Copy, Debug)]
    pub struct Trials {
        /// Relative error target ε.
        pub epsilon: f64,
        /// Failure probability target δ.
        pub delta: f64,
        /// Trials run.
        pub trials: usize,
        /// Trials with `|est − C| > ε·C`.
        pub failures: usize,
        /// The largest `|est − C| / C` over the trials.
        pub worst_error: f64,
    }

    impl Trials {
        /// Folds one grid cell's per-trial relative errors
        /// `|est − truth| / truth` into its failure count and worst error.
        pub fn from_errors(epsilon: f64, delta: f64, errors: &[f64]) -> Self {
            Trials {
                epsilon,
                delta,
                trials: errors.len(),
                failures: errors.iter().filter(|&&e| e > epsilon).count(),
                worst_error: errors.iter().copied().fold(0.0, f64::max),
            }
        }

        /// The observed failure rate.
        pub fn rate(&self) -> f64 {
            self.failures as f64 / self.trials as f64
        }

        /// The one-sided Clopper–Pearson upper bound on the failure rate at
        /// [`CONFIDENCE`].
        pub fn upper_bound(&self) -> f64 {
            clopper_pearson_upper(self.failures, self.trials, CONFIDENCE)
        }

        /// Whether the contract holds: the upper bound is at most δ.
        pub fn holds(&self) -> bool {
            self.upper_bound() <= self.delta
        }
    }

    /// The fewest trials that can pass at this δ: the smallest `N` whose
    /// zero-failure upper bound is at most δ.
    pub fn fewest_trials(delta: f64) -> usize {
        (1..)
            .find(|&n| clopper_pearson_upper(0, n, CONFIDENCE) <= delta)
            .expect("some trial count reaches any δ > 0")
    }

    /// The largest `p` with `P[Bin(trials, p) ≤ failures] ≥ 1 − confidence`,
    /// found by bisection on the binomial CDF.
    pub fn clopper_pearson_upper(failures: usize, trials: usize, confidence: f64) -> f64 {
        assert!(failures <= trials && trials > 0);
        if failures == trials {
            return 1.0;
        }
        let (mut lo, mut hi) = (failures as f64 / trials as f64, 1.0);
        for _ in 0..100 {
            let mid = (lo + hi) / 2.0;
            if binomial_cdf(failures, trials, mid) > 1.0 - confidence {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// `P[Bin(n, p) ≤ k]`, summed in log space so no term underflows early.
    fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
        let (lp, lq) = (p.ln(), (-p).ln_1p());
        let mut ln_choose = 0.0;
        let mut total = 0.0;
        for i in 0..=k {
            if i > 0 {
                ln_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
            }
            total += (ln_choose + i as f64 * lp + (n - i) as f64 * lq).exp();
        }
        total
    }

    /// Three random DNFs over 12 variables whose exact counts lie in
    /// `[Thresh, 2·Thresh)`, so level 0 always overflows and every estimate
    /// comes from a hashed cell: the first such formulas of a fixed seed.
    pub fn dnf_inputs(thresh: usize) -> Vec<(FormulaInput, f64)> {
        inputs_in_range(thresh, |rng| {
            let terms = 2 + rng.gen_range(6) as usize;
            let f = random_dnf(rng, 12, terms, (3, 7));
            let exact = count_dnf_exact(&f) as f64;
            (FormulaInput::Dnf(f), exact)
        })
    }

    /// Three random 3-CNFs over 14 variables whose exact counts lie in
    /// `[Thresh, 2·Thresh)`, drawn like [`dnf_inputs`].
    pub fn cnf_inputs(thresh: usize) -> Vec<(FormulaInput, f64)> {
        inputs_in_range(thresh, |rng| {
            let clauses = 8 + rng.gen_range(16) as usize;
            let f = random_k_cnf(rng, 14, clauses, 3);
            let exact = count_cnf_dpll(&f) as f64;
            (FormulaInput::Cnf(f), exact)
        })
    }

    fn inputs_in_range(
        thresh: usize,
        mut draw: impl FnMut(&mut Xoshiro256StarStar) -> (FormulaInput, f64),
    ) -> Vec<(FormulaInput, f64)> {
        let range = thresh as f64..2.0 * thresh as f64;
        let mut rng = Xoshiro256StarStar::seed_from_u64(1800);
        std::iter::repeat_with(|| draw(&mut rng))
            .filter(|(_, exact)| range.contains(exact))
            .take(3)
            .collect()
    }

    /// A model counter under test.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Counter {
        /// ApproxMC (Algorithm 5) with galloping level search.
        ApproxMc,
        /// `ApproxModelCountMin` (Algorithm 6).
        Min,
        /// `ApproxModelCountEst` (Algorithm 7) on the enumerative backend,
        /// with `r = choose_r` of a 7-draw rough estimate.
        Est,
    }

    impl Counter {
        /// The counter's name in the E18 table.
        pub fn name(self) -> &'static str {
            match self {
                Counter::ApproxMc => "ApproxMC",
                Counter::Min => "Min counter",
                Counter::Est => "Est counter",
            }
        }

        fn estimate(
            self,
            input: &FormulaInput,
            config: &CountingConfig,
            rng: &mut Xoshiro256StarStar,
        ) -> f64 {
            match self {
                Counter::ApproxMc => approx_mc(input, config, LevelSearch::Galloping, rng).estimate,
                Counter::Min => approx_model_count_min(input, config, rng).estimate,
                Counter::Est => {
                    let rough = rough_log2_estimate(input, 7, rng).expect("inputs are satisfiable");
                    let r = choose_r(rough);
                    approx_model_count_est(input, config, r, EstBackend::Enumerative, rng).estimate
                }
            }
        }
    }

    /// `trials` runs of `counter` at `CountingConfig::paper(ε, δ)`, cycling
    /// through `inputs`, each on hash draws of its own seed.
    pub fn counter_trials(
        counter: Counter,
        inputs: &[(FormulaInput, f64)],
        epsilon: f64,
        delta: f64,
        trials: usize,
    ) -> Trials {
        let config = CountingConfig::paper(epsilon, delta);
        let errors: Vec<f64> = (0..trials)
            .map(|trial| {
                let (input, exact) = &inputs[trial % inputs.len()];
                let mut rng = Xoshiro256StarStar::seed_from_u64(18_000 + trial as u64);
                let estimate = counter.estimate(input, &config, &mut rng);
                (estimate - exact).abs() / exact
            })
            .collect();
        Trials::from_errors(epsilon, delta, &errors)
    }

    /// The universe width of the streaming half's planted streams.
    pub const STREAM_BITS: usize = 24;

    /// `trials` runs of the sketch `new` builds at `F0Config::paper(ε, δ)`.
    /// Each trial draws a planted stream of exactly `distinct` distinct items
    /// (each seen twice on average) and a fresh hash seed, and fails when
    /// `|est − F0| > ε·F0`.
    pub fn sketch_trials<S: F0Sketch>(
        new: fn(usize, &F0Config, &mut Xoshiro256StarStar) -> S,
        distinct: usize,
        epsilon: f64,
        delta: f64,
        trials: usize,
    ) -> Trials {
        let config = F0Config::paper(epsilon, delta);
        let errors: Vec<f64> = (0..trials)
            .map(|trial| {
                let mut rng = Xoshiro256StarStar::seed_from_u64(18_000 + trial as u64);
                let stream = planted_f0_stream(&mut rng, STREAM_BITS, distinct, 2 * distinct);
                let mut sketch = new(STREAM_BITS, &config, &mut rng);
                sketch.process_stream(&stream);
                (sketch.estimate() - distinct as f64).abs() / distinct as f64
            })
            .collect();
        Trials::from_errors(epsilon, delta, &errors)
    }
}

/// Shared workload builders for the sketch-service differential harness.
///
/// Everything here is a pure function of its seed, so the differential
/// proptests (`crates/service/tests/differential.rs`) and the wire,
/// durability and fault-injection suites replay identical traces.
pub mod service_support {
    use mcf0::formula::generators::random_dnf;
    use mcf0::hashing::Xoshiro256StarStar;
    use mcf0::service::{CommandReply, ServiceCommand, SessionSpec, SketchKind};

    /// The tenant roster a generated trace works over: one session per
    /// sketch kind plus same-spec twins for the merge commands (merge
    /// requires identical draws, i.e. identical specs), plus windowed
    /// twins of the three plain-F0 kinds so the epoch-ring commands
    /// (`advance`, `estimate_window`) and the windowed merge/set-algebra
    /// edges are exercised by every generated trace.
    pub fn trace_sessions(universe_bits: usize) -> Vec<(String, SessionSpec)> {
        let mut out = Vec::new();
        let kinds = [
            ("min", SketchKind::Minimum),
            ("bkt", SketchKind::Bucketing),
            ("est", SketchKind::Estimation),
            ("ams", SketchKind::Ams),
            ("dnf", SketchKind::StructuredMinimum),
        ];
        for (name, kind) in kinds {
            // Small shapes keep debug-profile replays fast without changing
            // the algorithmic structure; the seed ties the draw to the name.
            let spec = SessionSpec::new(kind, universe_bits, 12, 3, 0xA5 + name.len() as u64);
            out.push((name.to_string(), spec));
            out.push((format!("{name}2"), spec));
        }
        let windowed = [
            ("wmin", SketchKind::Minimum, 3),
            ("wbkt", SketchKind::Bucketing, 2),
            ("west", SketchKind::Estimation, 4),
        ];
        for (name, kind, window) in windowed {
            let spec = SessionSpec::new(kind, universe_bits, 12, 3, 0xA5 + name.len() as u64)
                .with_window(window);
            out.push((name.to_string(), spec));
            out.push((format!("{name}2"), spec));
        }
        out
    }

    /// A deterministic mixed-kind command trace: creates the
    /// [`trace_sessions`] roster, then `commands` random operations across
    /// it — duplicate-heavy ingest batches, structured ingests, merges
    /// between the same-spec twins, estimate / space / save queries, the
    /// occasional drop-and-recreate, and deliberately invalid commands
    /// (unknown sessions, wrong item types, incompatible merges) so the
    /// error replies are differential-tested too.
    pub fn random_trace(seed: u64, universe_bits: usize, commands: usize) -> Vec<ServiceCommand> {
        use std::collections::HashMap;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let roster = trace_sessions(universe_bits);
        let mut trace: Vec<ServiceCommand> = roster
            .iter()
            .map(|(name, spec)| ServiceCommand::Create {
                name: name.clone(),
                spec: *spec,
            })
            .collect();
        let mask = if universe_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << universe_bits) - 1
        };
        // The generator's view of every windowed session's epoch, mirroring
        // the service's control-plane bookkeeping (valid advances bump it,
        // drop-and-recreate resets it) so the generator can aim both valid
        // and deliberately regressed epochs.
        let mut epochs: HashMap<String, u64> = HashMap::new();
        for _ in 0..commands {
            let (name, spec) = &roster[rng.next_u64() as usize % roster.len()];
            let structured = spec.kind == SketchKind::StructuredMinimum;
            let step: Vec<ServiceCommand> = match rng.next_u64() % 16 {
                0..=3 => {
                    // Duplicate-heavy batches: items drawn from a window
                    // whose width varies from 4 (nearly all duplicates) to
                    // the full universe (`max(1)` guards the 1-bit-universe
                    // edge, where the mask below clamps the window anyway).
                    let window_span = (universe_bits as u64).saturating_sub(1).max(1);
                    let window = 1u64 << (2 + rng.next_u64() % window_span).min(62);
                    let len = (rng.next_u64() % 60) as usize;
                    let items = (0..len).map(|_| (rng.next_u64() % window) & mask).collect();
                    vec![ServiceCommand::Ingest {
                        name: name.clone(),
                        items,
                    }]
                }
                4 => {
                    // Structured items must span exactly the session's
                    // universe (the sketch asserts the width).
                    let len = (rng.next_u64() % 3 + 1) as usize;
                    let sets = (0..len)
                        .map(|_| {
                            // Term widths cannot exceed the variable count.
                            let lits = (2.min(universe_bits), 4.min(universe_bits));
                            random_dnf(&mut rng, universe_bits, 3, lits)
                        })
                        .collect();
                    vec![ServiceCommand::IngestStructured {
                        name: name.clone(),
                        sets,
                    }]
                }
                5 => vec![ServiceCommand::Estimate { name: name.clone() }],
                6 => vec![ServiceCommand::EstimateWithR {
                    name: name.clone(),
                    r: (rng.next_u64() % 10) as u32,
                }],
                7 => vec![ServiceCommand::SpaceBits { name: name.clone() }],
                8 => vec![ServiceCommand::Save { name: name.clone() }],
                9 => {
                    // Merge between the same-spec twins (valid), across
                    // kinds, or into itself (both rejected identically on
                    // both sides — the self-merge guards the AMS
                    // double-count bug).
                    let twin = if name.ends_with('2') {
                        name.trim_end_matches('2').to_string()
                    } else {
                        format!("{name}2")
                    };
                    let src = match rng.next_u64() % 8 {
                        0..=1 => "bkt".to_string(),
                        2 => name.clone(),
                        _ => twin,
                    };
                    vec![ServiceCommand::Merge {
                        dst: name.clone(),
                        src,
                    }]
                }
                10 => {
                    // Drop and immediately recreate: exercises partial-side
                    // session teardown mid-trace (and resets a windowed
                    // session's epoch to 0 — the recreate is a fresh ring).
                    epochs.insert(name.clone(), 0);
                    vec![
                        ServiceCommand::Drop { name: name.clone() },
                        ServiceCommand::Create {
                            name: name.clone(),
                            spec: *spec,
                        },
                    ]
                }
                11 => {
                    // Invalid by construction.
                    if structured {
                        vec![ServiceCommand::Ingest {
                            name: name.clone(),
                            items: vec![1, 2, 3],
                        }]
                    } else if rng.next_u64().is_multiple_of(2) {
                        vec![ServiceCommand::IngestStructured {
                            name: name.clone(),
                            sets: vec![random_dnf(
                                &mut rng,
                                universe_bits,
                                2,
                                (2.min(universe_bits), 3.min(universe_bits)),
                            )],
                        }]
                    } else {
                        vec![ServiceCommand::Estimate {
                            name: "no-such-session".to_string(),
                        }]
                    }
                }
                12 => {
                    // Epoch advance: mostly valid fast-forwards on windowed
                    // sessions, plus deliberate repeats/regressions and
                    // advances on unwindowed sessions, so the typed
                    // `epoch_regressed` / `not_windowed` rejections are
                    // differential-tested alongside the happy path.
                    let current = epochs.get(name.as_str()).copied().unwrap_or(0);
                    let epoch = match rng.next_u64() % 8 {
                        0 => current,     // a repeat never advances (0 ≤ 0 too)
                        1 => current / 2, // regression once the ring has moved
                        _ => current + 1 + rng.next_u64() % 3,
                    };
                    // Mirror the service's bookkeeping: only a valid advance
                    // on a windowed session moves the epoch.
                    if spec.window.is_some() && epoch > current {
                        epochs.insert(name.clone(), epoch);
                    }
                    vec![ServiceCommand::Advance {
                        name: name.clone(),
                        epoch,
                    }]
                }
                13 => {
                    // Windowed estimate: valid on the ring sessions,
                    // `not_windowed` on the classic ones, and the occasional
                    // unknown session.
                    let target = if rng.next_u64().is_multiple_of(8) {
                        "no-such-session".to_string()
                    } else {
                        name.clone()
                    };
                    vec![ServiceCommand::EstimateWindow { name: target }]
                }
                _ => {
                    // Set-algebra pair: the same-spec twin (valid), the
                    // session itself (valid — reads don't mutate), a
                    // cross-kind partner (`spec_mismatch`), or an unknown
                    // session; the AMS twins answer
                    // `set_algebra_unsupported`.
                    let twin = if name.ends_with('2') {
                        name.trim_end_matches('2').to_string()
                    } else {
                        format!("{name}2")
                    };
                    let b = match rng.next_u64() % 8 {
                        0 => "min".to_string(),
                        1 => name.clone(),
                        2 => "no-such-session".to_string(),
                        _ => twin,
                    };
                    if rng.next_u64().is_multiple_of(2) {
                        vec![ServiceCommand::IntersectionEstimate { a: name.clone(), b }]
                    } else {
                        vec![ServiceCommand::JaccardEstimate { a: name.clone(), b }]
                    }
                }
            };
            trace.extend(step);
        }
        trace
    }

    /// Rewrites a trace with every ingest batch split into chunks of at most
    /// `chunk` items. Batch boundaries are pure routing, so all *query*
    /// replies must be unchanged; only the ledger's batch count (and hence
    /// the snapshot document) legitimately moves.
    pub fn resplit_batches(trace: &[ServiceCommand], chunk: usize) -> Vec<ServiceCommand> {
        assert!(chunk >= 1);
        let mut out = Vec::new();
        for cmd in trace {
            match cmd {
                ServiceCommand::Ingest { name, items } if items.len() > chunk => {
                    for part in items.chunks(chunk) {
                        out.push(ServiceCommand::Ingest {
                            name: name.clone(),
                            items: part.to_vec(),
                        });
                    }
                }
                ServiceCommand::IngestStructured { name, sets } if sets.len() > chunk => {
                    for part in sets.chunks(chunk) {
                        out.push(ServiceCommand::IngestStructured {
                            name: name.clone(),
                            sets: part.to_vec(),
                        });
                    }
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// The replies of the pure *query* commands of a replay, in order —
    /// the batch-split-invariant slice of a trace's outputs (snapshot
    /// documents embed the ledger, whose batch count batch splits do move).
    pub fn query_outputs(
        trace: &[ServiceCommand],
        replies: &[Result<CommandReply, mcf0::service::ServiceError>],
    ) -> Vec<Result<CommandReply, mcf0::service::ServiceError>> {
        assert_eq!(trace.len(), replies.len());
        trace
            .iter()
            .zip(replies)
            .filter(|(cmd, _)| {
                matches!(
                    cmd,
                    ServiceCommand::Estimate { .. }
                        | ServiceCommand::EstimateWindow { .. }
                        | ServiceCommand::IntersectionEstimate { .. }
                        | ServiceCommand::JaccardEstimate { .. }
                        | ServiceCommand::EstimateWithR { .. }
                        | ServiceCommand::SpaceBits { .. }
                )
            })
            .map(|(_, reply)| reply.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_relative_error_is_derived() {
        let row = ExperimentRow::new("E1", "n=1".into(), "bucketing", Some(100.0), 120.0);
        assert!((row.relative_error.unwrap() - 0.2).abs() < 1e-12);
        let row = ExperimentRow::new("E1", "n=1".into(), "bucketing", None, 120.0);
        assert!(row.relative_error.is_none());
        let with_metric = row.with_metric("oracle_calls", 42.0);
        assert_eq!(with_metric.metric_name.as_deref(), Some("oracle_calls"));
    }

    #[test]
    fn workload_builders_are_deterministic() {
        assert_eq!(bench_dnf(12, 6, 1).to_text(), bench_dnf(12, 6, 1).to_text());
    }

    #[test]
    fn traces_are_deterministic_and_cover_every_universe_width() {
        use super::service_support::random_trace;
        assert_eq!(random_trace(7, 16, 30), random_trace(7, 16, 30));
        // The minimum universe width must generate, not divide by zero.
        for bits in [1usize, 2, 64] {
            assert!(!random_trace(3, bits, 20).is_empty(), "bits = {bits}");
        }
    }
}
