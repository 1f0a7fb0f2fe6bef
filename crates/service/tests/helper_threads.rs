//! Shards are state, not threads: a service with K shards keeps K − 1
//! helper threads (`mcf0-shard-<i>`), spawns none per batch, and joins them
//! all when dropped. This is the only test in its binary, so no other test
//! adds threads while it counts.

#![cfg(target_os = "linux")]
// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_service::{SessionSpec, SketchKind, SketchService};
use std::time::{Duration, Instant};

/// Threads of this process named like a shard helper.
fn shard_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("mcf0-shard-"))
        .count()
}

/// The count once it reaches `want`, or whatever it is after a second: a
/// new helper names itself only once it runs, and a joined thread can
/// linger in `/proc` for a moment after `join` returns.
fn settled_shard_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let count = shard_threads();
        if count == want || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_service_keeps_one_helper_thread_per_shard_after_the_first() {
    let spec = SessionSpec::new(SketchKind::Minimum, 16, 12, 3, 7);
    let large: Vec<u64> = (0..1 << 14).collect();

    let mut one = SketchService::new(1);
    one.create_session("s", spec).unwrap();
    one.ingest("s", &large).unwrap();
    assert_eq!(shard_threads(), 0);

    let mut four = SketchService::new(4);
    assert_eq!(settled_shard_threads(3), 3);
    four.create_session("s", spec).unwrap();
    four.ingest("s", &large).unwrap();
    four.ingest("s", &large[..64]).unwrap();
    assert_eq!(settled_shard_threads(3), 3);
    assert_eq!(four.estimate("s").unwrap(), one.estimate("s").unwrap());

    drop(four);
    drop(one);
    assert_eq!(settled_shard_threads(0), 0);
}
