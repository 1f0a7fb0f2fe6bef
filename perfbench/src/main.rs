//! The repository's one repeatable benchmark: five workloads over the
//! ingest path and the counting path, named end-to-end metrics, and a
//! per-layer ledger from a traced run. See README.md beside this file.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation with `--workload` is one trial: one process, one
//! workload, one seed. Its last line of standard output is the result as
//! one JSON object. Without `--workload` the runner re-executes itself once
//! per workload and repeat and prints every metric's median, minimum and
//! maximum.

mod count;
mod durable;
mod gen;
mod harness;
mod inproc;
mod layers;
mod spans;
mod stats;
mod sys;
mod wire;
mod wire_ingest;
mod wire_mixed;

use harness::{Outcome, Plan, END_TO_END};
use layers::{Layers, PER_LAYER};
use spans::Recorder;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

type Workload = fn(&Plan) -> Outcome;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [(&str, Workload); 5] = [
    ("wire_ingest", wire_ingest::run),
    ("wire_mixed", wire_mixed::run),
    ("inproc_ingest", inproc::run),
    ("durable_ingest", durable::run),
    ("count_cnf", count::run),
];

/// Where trial records, spans and the durable workload's stores go,
/// relative to the working directory.
const OUT_DIR: &str = "target/benchmark";
/// How far the traced ledger's rungs may sum past the end-to-end time
/// before the run refuses to print it. The two are measured seconds apart
/// on a box whose speed shifts by tens of percent within seconds, so only
/// an overshoot no shift explains is refused.
const LEDGER_TOLERANCE: f64 = 0.5;
/// An untraced run measures in this many slices, with this many more
/// set-ups built and timed before each (nineteen set-ups a run).
const SLICES: usize = 6;
const SPARE_SETUPS: usize = 3;
/// Trials per workload of the all-workloads summary.
const REPEATS: usize = 3;
/// `--smoke` runs every workload for this long instead of `--seconds`.
const SMOKE_SECONDS: f64 = 0.2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number of seconds")?)?,
            "--trace" => args.trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".to_string());
    }
    if args.smoke {
        args.seconds = SMOKE_SECONDS;
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!("usage: [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("benchmark: this is a debug build; measure with --release (or pass --smoke)");
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => trial(name, &args),
        None => summary(&args),
    }
}

/// One trial of one workload in this process.
fn trial(name: &str, args: &Args) -> ExitCode {
    let Some((name, run)) = WORKLOADS.iter().find(|(w, _)| *w == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        eprintln!(
            "benchmark: unknown workload `{name}`; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("benchmark: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
        slices: if args.smoke { 1 } else { SLICES },
        spare_setups: if args.smoke { 0 } else { SPARE_SETUPS },
    };
    let outcome = run(&plan);

    let units: &[(&str, &str)] = if plan.trace { &PER_LAYER } else { &END_TO_END };
    // `(metric, value, unit)`; JSON has no NaN or infinity, so a ratio over
    // a zero reads 0.
    let rows: Vec<(&str, f64, &str)> = outcome
        .metrics
        .iter()
        .map(|(metric, value)| {
            let unit = units
                .iter()
                .find(|(m, _)| m == metric)
                .map_or("", |(_, u)| *u);
            (*metric, if value.is_finite() { *value } else { 0.0 }, unit)
        })
        .collect();
    let metrics: Vec<String> = rows
        .iter()
        .map(|(metric, value, unit)| {
            format!("\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = outcome.checks.failed == 0 && outcome.checks.attempted > 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics.join(",")
    );
    record_trial(&plan, name, &result, &outcome);

    for note in &outcome.checks.notes {
        eprintln!("benchmark: {name}: failed: {note}");
    }
    for remark in &outcome.remarks {
        eprintln!("benchmark: {name}: {remark}");
    }
    if !outcome.guards.is_empty() {
        // The numbers would mislead: print none.
        for guard in &outcome.guards {
            eprintln!("benchmark: {name}: invalid run: {guard}");
        }
        return ExitCode::from(3);
    }
    for (metric, value, unit) in &rows {
        eprintln!("{name:>15}  {metric:<32} {value:>16.6} {unit}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Appends the trial and the facts of the box to `trials.jsonl`. A run a
/// validity guard refused is recorded too, with the guards that tripped.
fn record_trial(plan: &Plan, workload: &str, result: &str, outcome: &Outcome) {
    let env = sys::Environment::read(&plan.out_dir);
    let text = |s: &str| {
        let mut out = String::new();
        serde::write_json_string(s, &mut out);
        out
    };
    let list = |items: &[String]| {
        let items: Vec<String> = items.iter().map(|s| text(s)).collect();
        format!("[{}]", items.join(","))
    };
    let line = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{result},\
         \"guards\":{},\"remarks\":{},\
         \"git_commit\":{},\"nproc\":{},\"cpu_model\":{},\"fs_type\":{},\"rustc\":{},\"profile\":{}}}\n",
        text(workload),
        plan.seed,
        plan.seconds,
        plan.trace,
        list(&outcome.guards),
        list(&outcome.remarks),
        text(&env.git_commit),
        env.nproc,
        text(&env.cpu_model),
        text(&env.fs_type),
        text(&env.rustc),
        text(env.profile),
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(plan.out_dir.join("trials.jsonl"))
        .and_then(|mut file| file.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("benchmark: trial record not written: {e}");
    }
}

/// The end of every traced run: the spans go to `spans.jsonl`, and a
/// ledger whose rungs sum past the end-to-end time is refused.
pub fn finish_trace(plan: &Plan, rec: &Recorder, layers: &Layers) -> Vec<String> {
    let mut guards = Vec::new();
    if let Err(e) = rec.write_jsonl(&plan.out_dir.join("spans.jsonl")) {
        eprintln!("benchmark: spans not written: {e}");
    }
    eprintln!("benchmark: {} spans in {OUT_DIR}/spans.jsonl", rec.len());
    let residual = layers.get("ledger.residual_frac");
    if residual < -LEDGER_TOLERANCE {
        guards.push(format!(
            "ledger.residual_frac {residual:.3}: the rungs measured in isolation sum past the \
             end-to-end time, so the ledger does not describe the run"
        ));
    }
    guards
}

/// Every workload, `REPEATS` trials each (one under `--smoke`), one process
/// per trial; prints each metric's median, minimum and maximum.
fn summary(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find the running executable: {e}");
            return ExitCode::from(2);
        }
    };
    let repeats = if args.smoke { 1 } else { REPEATS };
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let trials: Vec<_> = (0..repeats)
            .filter_map(|_| run_child(&exe, name, args))
            .collect();
        ok &= trials.len() == repeats;
        let Some(first) = trials.first() else {
            continue;
        };
        for (metric, _, unit) in first {
            let values: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.iter().find(|(m, _, _)| m == metric).map(|(_, v, _)| *v))
                .collect();
            println!(
                "{name:>15}  {metric:<32} median {:>16.6}  min {:>16.6}  max {:>16.6}  {unit}  \
                 (n={}, quartile spread {:.3})",
                stats::median(&values),
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                values.len(),
                stats::quartile_spread(&values),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One trial in a child process; its metrics as `(name, value, unit)`, or
/// `None` when the child failed.
fn run_child(exe: &Path, workload: &str, args: &Args) -> Option<Vec<(String, f64, String)>> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        eprintln!("benchmark: {workload}: trial exited with {}", output.status);
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    let result = serde_json::parse(stdout.lines().last()?).ok()?;
    let serde::Value::Object(metrics) = result.get("metrics")? else {
        return None;
    };
    Some(
        metrics
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect(),
    )
}
