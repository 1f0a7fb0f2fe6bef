//! What the five workloads share: the plan of one trial, the tally of
//! checked operations, the raw end-to-end samples and how they fold into
//! the named metrics.

use crate::stats::{quantile, quiet, QUIET_Q};
use crate::sys;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Sketch shape of every session (the paper-scale defaults of the repo's
/// own benches): w = 32, Thresh = 150, 9 rows.
pub const THRESH: usize = 150;
pub const ROWS: usize = 9;

/// One trial: one workload, one seed, one process.
pub struct Plan {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// `target/benchmark` under the working directory: trial records,
    /// spans and the durable workload's store directories.
    pub out_dir: PathBuf,
    /// An untraced run measures in this many equal slices, and before each
    /// builds, times and retires `spare_setups` more set-ups, so that set-up
    /// time is sampled across the whole run and not at one moment of it.
    pub slices: usize,
    pub spare_setups: usize,
}

impl Plan {
    /// The measured phase as a duration, or a share of it.
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation and, when `ok` is false, one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), "");
        if !ok {
            self.note(what());
        }
    }

    /// Counts operations that were checked where they ran.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && !what.is_empty() {
            self.note(format!("{failed} x {what}"));
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// One block of a measured phase: a round, a quarter second of an open
/// loop, a cycle of jobs.
pub struct Block {
    /// Work units completed in the block.
    pub ops: u64,
    /// Wall seconds the block's work took (checks between blocks excluded).
    pub wall_s: f64,
    /// Process CPU seconds over the same stretch, every thread included.
    pub cpu_s: f64,
    /// Latency of every caller-visible call of the block.
    pub call_ms: Vec<f64>,
}

/// A stopwatch over one block: wall and process-CPU time from `start`.
pub struct BlockClock {
    wall: Instant,
    cpu: f64,
}

impl BlockClock {
    pub fn start() -> Self {
        BlockClock {
            wall: Instant::now(),
            cpu: sys::cpu_seconds(),
        }
    }

    pub fn finish(self, ops: u64, call_ms: Vec<f64>) -> Block {
        Block {
            ops,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - self.cpu,
            call_ms,
        }
    }
}

/// Raw samples of one measured phase.
#[derive(Default)]
pub struct Samples {
    pub blocks: Vec<Block>,
    /// Reopen times of `durable_ingest`, one per round.
    pub recover_s: Vec<f64>,
}

impl Samples {
    /// One block: the whole of [`quiet_repeats`].
    pub fn of_repeats(repeats: Vec<(usize, Block)>) -> Self {
        Samples {
            blocks: vec![quiet_repeats(repeats)],
            recover_s: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Samples) {
        self.blocks.extend(other.blocks);
        self.recover_s.extend(other.recover_s);
    }

    fn per_block(&self, value: impl Fn(&Block) -> f64) -> Vec<f64> {
        self.blocks.iter().map(value).collect()
    }

    /// Work units per second of the quiet blocks (see `stats::quiet`).
    pub fn ops_per_s(&self) -> f64 {
        quiet(&self.per_block(|b| b.ops as f64 / b.wall_s), false)
    }

    /// Wall nanoseconds per work unit, likewise.
    pub fn wall_ns_per_op(&self) -> f64 {
        quiet(&self.per_block(|b| b.wall_s * 1e9 / b.ops as f64), true)
    }

    /// Process CPU microseconds per work unit, likewise.
    pub fn cpu_us_per_op(&self) -> f64 {
        quiet(&self.per_block(|b| b.cpu_s * 1e6 / b.ops as f64), true)
    }

    /// The `q`-quantile of call latency within a block, then the quiet
    /// blocks' value of it.
    pub fn call_ms(&self, q: f64) -> f64 {
        quiet(&self.per_block(|b| quantile(&b.call_ms, q)), true)
    }
}

/// The names, units and order of the end-to-end metrics (BENCHMARK.json
/// lists the same).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Folds the samples of an untraced run into the end-to-end metrics: each
/// is taken per block (set-up time per build) and the quiet blocks' value is
/// reported.
/// `tail_q` is the workload's tail percentile: the highest that leaves ten
/// calls beyond it in a block.
pub fn end_to_end(setup_s: &[f64], samples: &Samples, tail_q: f64) -> Vec<(&'static str, f64)> {
    let values = [
        quiet(setup_s, true),
        samples.ops_per_s(),
        samples.call_ms(0.5),
        samples.call_ms(tail_q),
        samples.cpu_us_per_op(),
        sys::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<(&'static str, f64)>,
    /// Validity guards that tripped: the numbers would mislead, so the run
    /// prints none.
    pub guards: Vec<String>,
    /// What a reader of the numbers must know about how this run was taken;
    /// printed and kept in the trial record.
    pub remarks: Vec<String>,
}

/// Builds one set-up and times it.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let built = build();
    (built, start.elapsed().as_secs_f64())
}

/// The measured phase of an untraced run: `slice` is called `plan.slices`
/// times with an equal share of the run each, and before each call
/// `plan.spare_setups` set-ups are built, timed into `setup_s` and retired.
/// The box runs at one of two speeds for seconds at a time; set-ups timed at
/// one moment would all see the same one.
pub fn measure_in_slices<T>(
    plan: &Plan,
    setup_s: &mut Vec<f64>,
    mut build: impl FnMut() -> T,
    mut retire: impl FnMut(T),
    mut slice: impl FnMut(Duration),
) {
    for _ in 0..plan.slices {
        for _ in 0..plan.spare_setups {
            let (spare, seconds) = timed(&mut build);
            setup_s.push(seconds);
            retire(spare);
        }
        slice(plan.share(1.0 / plan.slices as f64));
    }
}

/// Repeats of identical units of work, as `(unit, block)`, folded into the
/// whole as it runs undisturbed: every unit at its quiet repeat, the one at
/// the first decile of its repeats by wall time.
///
/// Each vCPU of the box flips between two speeds a quarter apart, for half a
/// second to many seconds at a time, so any stretch long enough to hold the
/// whole is a mix that differs from run to run. A unit does the same work
/// every time, though: whatever a repeat of it takes beyond the fastest few
/// was added from outside, and a unit is short enough to fall inside a quiet
/// stretch a few times in a run even when whole rounds never do.
pub fn quiet_repeats(repeats: Vec<(usize, Block)>) -> Block {
    let mut by_unit: BTreeMap<usize, Vec<Block>> = BTreeMap::new();
    for (unit, block) in repeats {
        by_unit.entry(unit).or_default().push(block);
    }
    let mut whole = Block {
        ops: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        call_ms: Vec::new(),
    };
    for mut blocks in by_unit.into_values() {
        blocks.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let rank = (QUIET_Q * (blocks.len() - 1) as f64).round() as usize;
        let block = blocks.swap_remove(rank);
        whole.ops += block.ops;
        whole.wall_s += block.wall_s;
        whole.cpu_s += block.cpu_s;
        whole.call_ms.extend(block.call_ms);
    }
    whole
}

/// Whether an estimate lies within `(1 ± epsilon)` of the planted count.
pub fn within(estimate: f64, planted: f64, epsilon: f64) -> bool {
    (estimate - planted).abs() <= epsilon * planted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(slices: usize, spare_setups: usize) -> Plan {
        Plan {
            seed: 1,
            seconds: 6.0,
            trace: false,
            out_dir: PathBuf::new(),
            slices,
            spare_setups,
        }
    }

    #[test]
    fn every_slice_times_its_spare_setups_first() {
        let (mut built, mut retired, mut slices) = (0, 0, Vec::new());
        let mut setup_s = vec![0.5];
        measure_in_slices(
            &plan(3, 2),
            &mut setup_s,
            || built += 1,
            |()| retired += 1,
            |budget| slices.push(budget),
        );
        assert_eq!((built, retired), (6, 6));
        assert_eq!(setup_s.len(), 7);
        assert_eq!(slices, vec![Duration::from_secs(2); 3]);
    }

    #[test]
    fn the_whole_is_every_units_quiet_repeat() {
        let repeat = |unit, wall_s, cpu_s| {
            let block = Block {
                ops: 4,
                wall_s,
                cpu_s,
                call_ms: vec![wall_s * 1e3],
            };
            (unit, block)
        };
        // Unit 0 ran eleven times (the first decile is its second fastest),
        // unit 1 twice (its faster).
        let mut repeats: Vec<_> = (0..11)
            .map(|k| repeat(0, 0.40 - 0.03 * k as f64, 0.01 * k as f64))
            .collect();
        repeats.extend([repeat(1, 0.20, 0.20), repeat(1, 0.25, 0.15)]);
        let whole = quiet_repeats(repeats);
        assert_eq!(whole.ops, 8);
        assert!((whole.wall_s - (0.13 + 0.20)).abs() < 1e-12);
        // The CPU time of the same repeats.
        assert!((whole.cpu_s - (0.09 + 0.20)).abs() < 1e-12);
        assert_eq!(whole.call_ms.len(), 2);
    }
}
