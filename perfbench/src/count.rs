//! `count_cnf`: the counting half of the paper. `approx_mc_on_oracle`
//! (Thresh 40, 3 rows, galloping) and `find_min_cnf` (p = 8, 3n-bit
//! Toeplitz) on a fixed family of random 3-CNF formulas; `sat` and
//! `counting` do all the work and the service stack none.
//!
//! The issue sizes the instances at n = 40 to 44 (a second each). A run
//! here is under twenty seconds, and a counter run's time varies by a
//! quarter with its hash draw, so the instances are scaled down by twelve
//! variables (n = 28 to 32, 10 to 80 ms each). The unit is a cycle of twenty
//! jobs, each with its own hash draws from `--seed`; two clients, one per
//! core, walk the same cycle again and again, so a job's runs do identical
//! work and differ only by what the box did to them, while twenty jobs
//! average the draws enough for two seeds to be comparable. The formulas
//! themselves are fixed, so their exact model counts are the same on every
//! seed.

use crate::gen::{random_3cnf, Rng};
use crate::harness::{end_to_end, measure_in_slices, timed, Block, Checks, Outcome, Plan, Samples};
use crate::layers::{Layers, Ledger};
use crate::spans::{Recorder, ROOT};
use crate::stats::{median, quantile};
use crate::sys;
use mcf0::counting::{approx_mc_on_oracle, CountingConfig, FormulaInput, LevelSearch};
use mcf0::formula::exact::count_cnf_dpll;
use mcf0::formula::{Assignment, CnfFormula};
use mcf0::hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0::sat::solver::{SolverStats, XorConstraint};
use mcf0::sat::{find_min_cnf, OracleStats, SatOracle, SolutionOracle};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The formula family's own seed: the formulas do not move with `--seed`.
const FAMILY_SEED: u64 = 4848;
const APPROXMC_THRESH: usize = 40;
const APPROXMC_ROWS: usize = 3;
const FINDMIN_P: usize = 8;

#[derive(Clone, Copy)]
enum Counter {
    ApproxMc,
    FindMin,
}

/// One job: these four counter runs, each on fresh hash draws.
const JOB: [(Counter, usize); 4] = [
    (Counter::ApproxMc, 28),
    (Counter::ApproxMc, 30),
    (Counter::FindMin, 28),
    (Counter::FindMin, 32),
];
const SIZES: [usize; 3] = [28, 30, 32];

/// A job is one call. A cycle's twenty jobs leave five beyond p75; a cycle
/// long enough for ten would sample each job too rarely to find it a quiet
/// moment.
const TAIL_Q: f64 = 0.75;
const CYCLE_JOBS: usize = 20;
/// Counting clients of the measured phase: one thread per core, like the
/// connections of the socket workloads. Each vCPU changes speed on its own,
/// so two clients find a job a quiet moment far more often than one.
const CLIENTS: usize = 2;
/// Jobs of the traced pass (fixed, so its counts repeat exactly).
const TRACED_JOBS: u64 = 12;

struct Instance {
    n: usize,
    formula: CnfFormula,
    models: u128,
}

struct Setup {
    instances: Vec<Instance>,
}

impl Setup {
    fn instance(&self, n: usize) -> &Instance {
        self.instances
            .iter()
            .find(|i| i.n == n)
            .expect("the family holds every size a job names")
    }
}

fn build(sizes: &[usize]) -> Setup {
    let instances = sizes
        .iter()
        .map(|&n| {
            let formula = random_3cnf(&mut Rng::lane(FAMILY_SEED, n as u64), n);
            Instance {
                n,
                models: count_cnf_dpll(&formula),
                formula,
            }
        })
        .collect();
    Setup { instances }
}

/// The hash seed of run `k` of job `job`.
fn hash_seed(seed: u64, job: u64, k: usize) -> u64 {
    Rng::lane(seed, 1000 + job * JOB.len() as u64 + k as u64).next_u64()
}

/// Runs one counter on `oracle` and checks its answer. `sampled` is called
/// around every hash draw.
fn run_counter(
    counter: Counter,
    instance: &Instance,
    oracle: &mut dyn SolutionOracle,
    hash_seed: u64,
    mut sampled: impl FnMut(&mut dyn FnMut() -> ToeplitzHash) -> ToeplitzHash,
    checks: &mut Checks,
) {
    let n = instance.n;
    let mut rng = Xoshiro256StarStar::seed_from_u64(hash_seed);
    match counter {
        Counter::ApproxMc => {
            let outcome = approx_mc_on_oracle(
                &FormulaInput::Cnf(instance.formula.clone()),
                &CountingConfig::explicit(0.8, 0.2, APPROXMC_THRESH, APPROXMC_ROWS),
                LevelSearch::Galloping,
                &mut rng,
                |rng| sampled(&mut || ToeplitzHash::sample(rng, n, n)),
                Some(oracle),
            );
            // Thresh 40 puts a row's cell count within a few sixths of its
            // mean; the median of three outside a factor of two of the
            // exact count means the counter is wrong, not unlucky.
            let exact = instance.models as f64;
            checks.check(
                outcome.estimate >= exact / 2.0 && outcome.estimate <= exact * 2.0,
                || {
                    format!(
                        "ApproxMC n={n}: estimate {} against {exact} models",
                        outcome.estimate
                    )
                },
            );
        }
        Counter::FindMin => {
            let hash = sampled(&mut || ToeplitzHash::sample(&mut rng, n, 3 * n));
            let minima = find_min_cnf(oracle, &hash, FINDMIN_P);
            let want = FINDMIN_P.min(instance.models as usize);
            checks.check(
                minima.len() == want && minima.windows(2).all(|w| w[0] < w[1]),
                || {
                    format!(
                        "FindMin n={n}: {} minima, not {want} ascending ones",
                        minima.len()
                    )
                },
            );
        }
    }
}

/// One thread per cursor, each running the jobs of the cycle in turn from
/// its cursor until `budget` is spent (at least one job), every counter run
/// on a fresh `SatOracle`. Every cycle repeats the same jobs, so a job's
/// runs do identical work and differ only by what the box did to them.
/// Returns every run as `(job, block)`: the job is the block's one call,
/// and its CPU time is the client thread's own.
fn measure(
    plan: &Plan,
    setup: &Setup,
    budget: Duration,
    cursors: &mut [usize],
    checks: &mut Checks,
) -> Vec<(usize, Block)> {
    let deadline = Instant::now() + budget;
    let logs: Vec<(Vec<(usize, Block)>, Checks)> = std::thread::scope(|scope| {
        let clients: Vec<_> = cursors
            .iter_mut()
            .map(|cursor| {
                scope.spawn(move || {
                    let (mut log, mut checks) = (Vec::new(), Checks::default());
                    loop {
                        let job = *cursor % CYCLE_JOBS;
                        let (wall, cpu) = (Instant::now(), sys::thread_cpu_seconds());
                        for (k, (counter, n)) in JOB.iter().enumerate() {
                            let instance = setup.instance(*n);
                            let mut oracle = SatOracle::new(instance.formula.clone());
                            let seed = hash_seed(plan.seed, job as u64, k);
                            let draw = |draw: &mut dyn FnMut() -> ToeplitzHash| draw();
                            run_counter(*counter, instance, &mut oracle, seed, draw, &mut checks);
                        }
                        let wall_s = wall.elapsed().as_secs_f64();
                        let run = Block {
                            ops: JOB.len() as u64,
                            wall_s,
                            cpu_s: sys::thread_cpu_seconds() - cpu,
                            call_ms: vec![wall_s * 1e3],
                        };
                        log.push((job, run));
                        *cursor += 1;
                        if Instant::now() >= deadline {
                            return (log, checks);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("a counting client does not panic"))
            .collect()
    });
    let mut runs = Vec::new();
    for (log, client_checks) in logs {
        runs.extend(log);
        checks.absorb(client_checks);
    }
    runs
}

pub fn run(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let (setup, first_setup_s) = timed(|| build(&SIZES));
    if !plan.trace {
        let mut setup_s = vec![first_setup_s];
        // The second client starts half a cycle in, so that between them
        // the clients reach every job early in a short run.
        let mut cursors: [usize; CLIENTS] = std::array::from_fn(|c| c * CYCLE_JOBS / CLIENTS);
        let mut runs = Vec::new();
        measure_in_slices(
            plan,
            &mut setup_s,
            || build(&SIZES),
            drop,
            |budget| runs.extend(measure(plan, &setup, budget, &mut cursors, &mut checks)),
        );
        // The cycle as one client runs it while its vCPU is undisturbed.
        let samples = Samples::of_repeats(runs);
        return Outcome {
            checks,
            metrics: end_to_end(&setup_s, &samples, TAIL_Q),
            guards: Vec::new(),
            remarks: Vec::new(),
        };
    }

    // One client, as the traced pass is: like with like.
    let plain = measure(plan, &setup, plan.share(0.4), &mut [0], &mut checks);
    let plain_ms: Vec<f64> = plain.iter().map(|(_, run)| run.wall_s * 1e3).collect();
    let mut layers = Layers::default();
    let rec = RefCell::new(Recorder::new());
    let mut oracle_stats = OracleStats::default();
    let mut solver_stats = SolverStats::default();
    let mut traced_ms = Vec::new();
    for job in 0..TRACED_JOBS {
        let start = Instant::now();
        for (k, (counter, n)) in JOB.iter().enumerate() {
            let instance = setup.instance(*n);
            let request = job * JOB.len() as u64 + k as u64;
            let run = rec.borrow_mut().begin("counting.run", ROOT, request);
            let mut oracle = TimedOracle {
                inner: SatOracle::new(instance.formula.clone()),
                rec: &rec,
                run,
                request,
            };
            let seed = hash_seed(plan.seed, job, k);
            let sampled = |draw: &mut dyn FnMut() -> ToeplitzHash| {
                let span = rec.borrow_mut().begin("hashing.sample", run, request);
                let hash = draw();
                rec.borrow_mut().end(span);
                hash
            };
            run_counter(*counter, instance, &mut oracle, seed, sampled, &mut checks);
            rec.borrow_mut().end(run);
            let (o, s) = (oracle.inner.stats(), oracle.inner.solver_stats());
            oracle_stats.sat_calls += o.sat_calls;
            oracle_stats.solutions_enumerated += o.solutions_enumerated;
            solver_stats.conflicts += s.conflicts;
            solver_stats.propagations += s.propagations;
            solver_stats.decisions += s.decisions;
            solver_stats.restarts += s.restarts;
            solver_stats.learned_clauses += s.learned_clauses;
        }
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let rec = rec.into_inner();

    // The plain phase ran the same first jobs: compare like with like.
    let same_jobs = &plain_ms[..plain_ms.len().min(TRACED_JOBS as usize)];
    layers.set(
        "gen.trace_overhead_frac",
        median(&traced_ms) / median(same_jobs) - 1.0,
    );
    let runs = (TRACED_JOBS * JOB.len() as u64) as f64;
    let total_ns: f64 = rec.durations("counting.run").iter().sum();
    let busy_ns = rec.self_ns("sat.call") + rec.self_ns("sat.assume");
    let call_us: Vec<f64> = rec
        .durations("sat.call")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    layers.set("hashing.sample_s", rec.self_ns("hashing.sample") / 1e9);
    layers.set("counting.self_s", rec.self_ns("counting.run") / 1e9);
    layers.set("sat.oracle_busy_s", busy_ns / 1e9);
    layers.set("sat.oracle_calls", oracle_stats.sat_calls as f64);
    layers.set(
        "sat.solutions_enumerated",
        oracle_stats.solutions_enumerated as f64,
    );
    layers.set("sat.call_p50_us", quantile(&call_us, 0.5));
    layers.set("sat.call_p99_us", quantile(&call_us, 0.99));
    layers.set("solver.conflicts", solver_stats.conflicts as f64);
    layers.set("solver.propagations", solver_stats.propagations as f64);
    layers.set("solver.decisions", solver_stats.decisions as f64);
    layers.set("solver.restarts", solver_stats.restarts as f64);
    layers.set(
        "solver.learned_clauses",
        solver_stats.learned_clauses as f64,
    );
    layers.set(
        "solver.props_per_s",
        solver_stats.propagations as f64 / (busy_ns / 1e9),
    );
    // Single-threaded, so a span's wall time is its CPU time: the run
    // spans are the end-to-end figure and their children the rungs.
    Ledger {
        e2e_wall_ns: total_ns / runs,
        e2e_cpu_ns: total_ns / runs,
        groups: vec![
            ("ledger.share_sat", busy_ns / runs),
            ("ledger.share_counting", rec.self_ns("counting.run") / runs),
            ("ledger.share_hashing", rec.self_ns("hashing.sample") / runs),
        ],
        hashing_in_sketch_ns: 0.0,
    }
    .write(&mut layers);

    let guards = crate::finish_trace(plan, &rec, &layers);
    Outcome {
        checks,
        metrics: layers.into_metrics(),
        guards,
        remarks: Vec::new(),
    }
}

/// The timing decorator: a `SolutionOracle` that records a span around
/// every call into the `SatOracle` it wraps, as a child of the counter run
/// that made the call.
struct TimedOracle<'a> {
    inner: SatOracle,
    rec: &'a RefCell<Recorder>,
    run: u32,
    request: u64,
}

impl TimedOracle<'_> {
    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce(&mut SatOracle) -> T) -> T {
        let span = self.rec.borrow_mut().begin(name, self.run, self.request);
        let out = call(&mut self.inner);
        self.rec.borrow_mut().end(span);
        out
    }
}

impl SolutionOracle for TimedOracle<'_> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn assumption_len(&self) -> usize {
        self.inner.assumption_len()
    }

    fn push_assumption(&mut self, xor: &XorConstraint) {
        self.timed("sat.assume", |o| o.push_assumption(xor));
    }

    fn pop_assumptions_to(&mut self, len: usize) {
        self.timed("sat.assume", |o| o.pop_assumptions_to(len));
    }

    fn exists(&mut self) -> bool {
        self.timed("sat.call", |o| o.exists())
    }

    fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.timed("sat.call", |o| o.enumerate(limit))
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_seeds_differ_by_seed_job_and_run() {
        let a = hash_seed(1, 0, 0);
        assert_eq!(a, hash_seed(1, 0, 0));
        assert_ne!(a, hash_seed(2, 0, 0));
        assert_ne!(a, hash_seed(1, 1, 0));
        assert_ne!(a, hash_seed(1, 0, 1));
    }

    #[test]
    fn a_job_passes_its_own_checks_on_two_seeds() {
        // The smallest size only: a debug build of the solver is slow.
        let setup = build(&[20]);
        for seed in [1u64, 2] {
            let mut checks = Checks::default();
            for (k, counter) in [Counter::ApproxMc, Counter::FindMin]
                .into_iter()
                .enumerate()
            {
                let instance = setup.instance(20);
                let mut oracle = SatOracle::new(instance.formula.clone());
                let hs = hash_seed(seed, 0, k);
                run_counter(
                    counter,
                    instance,
                    &mut oracle,
                    hs,
                    |draw| draw(),
                    &mut checks,
                );
            }
            assert_eq!(
                (checks.attempted, checks.failed),
                (2, 0),
                "{:?}",
                checks.notes
            );
        }
    }
}
