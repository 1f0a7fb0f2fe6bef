//! What the benchmark reads from the operating system: process and thread
//! CPU time, the resident-set high-water mark, and the facts of the box
//! recorded with every trial. 64-bit Linux only, like the epoll server the
//! socket workloads start: the `struct timespec` layout below and `/proc`
//! are that platform's.

use std::path::Path;
use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures on 64-bit Linux only");

/// The two C-library calls the benchmark makes itself (std already links
/// the library; no crate is added for them).
mod libc {
    /// `struct timespec` of the 64-bit Linux ABIs: two C `long`s.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `struct sched_param`.
    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const SCHED_IDLE: i32 = 5;

    extern "C" {
        pub fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
}

fn clock_seconds(clock: i32) -> f64 {
    let mut time = libc::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` with the layout
    // this ABI gives it, and the call writes nothing else.
    let status = unsafe { libc::clock_gettime(clock, &mut time) };
    if status != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds of this process so far, every thread
/// included, at the kernel's nanosecond resolution (`/proc/self/stat`
/// counts in 10 ms ticks, too coarse for a half-second block).
pub fn cpu_seconds() -> f64 {
    clock_seconds(libc::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread alone.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(libc::CLOCK_THREAD_CPUTIME_ID)
}

/// Moves the calling thread to the `SCHED_IDLE` policy: it then runs only
/// on a core nothing else wants, and any other thread that wakes preempts
/// it at once. Returns whether the kernel agreed.
pub fn run_only_when_idle() -> bool {
    let param = libc::SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param`; pid 0 names the
    // calling thread, whose policy is all the call changes.
    unsafe { libc::sched_setscheduler(0, libc::SCHED_IDLE, &param) == 0 }
}

/// `VmHWM` of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The facts of the box and the build, recorded with every trial.
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub fs_type: String,
    pub git_commit: String,
    pub rustc: String,
    pub profile: &'static str,
}

impl Environment {
    pub fn read(scratch_dir: &Path) -> Self {
        Environment {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model(),
            fs_type: fs_type(scratch_dir),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown)
}

/// Filesystem type of the mount that holds `dir`: the longest mount point
/// in `/proc/mounts` that is a prefix of the directory's absolute path.
fn fs_type(dir: &Path) -> String {
    let Ok(abs) = dir.canonicalize() else {
        return unknown();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return unknown();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(unknown, |(_, kind)| kind)
}

/// First line of a command's standard output, or "unknown" (the checkout a
/// driver runs in need not be a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(unknown)
}
