//! Partials are state, not threads: a service keeps exactly one helper
//! thread (`mcf0-shard-1`) whatever its `shards` argument, spawns none per
//! batch, and joins it when dropped. This is the only test in its binary, so no other test
//! adds threads while it counts.

#![cfg(target_os = "linux")]
// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_service::{SessionSpec, SketchKind, SketchService};
use std::time::{Duration, Instant};

/// Names of this process's threads named like a helper.
fn helper_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("mcf0-shard-"))
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn helper_threads() -> usize {
    helper_names().len()
}

/// The count once it reaches `want`, or whatever it is after a second: a
/// new helper names itself only once it runs, and a joined thread can
/// linger in `/proc` for a moment after `join` returns.
fn settled_helper_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let count = helper_threads();
        if count == want || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_service_keeps_exactly_one_helper_thread() {
    let spec = SessionSpec::new(SketchKind::Minimum, 16, 12, 3, 7);
    let large: Vec<u64> = (0..1 << 14).collect();

    let mut service = SketchService::new(1);
    assert_eq!(settled_helper_threads(1), 1);
    assert_eq!(helper_names(), ["mcf0-shard-1"]);
    service.create_session("s", spec).unwrap();
    service.ingest("s", &large).unwrap();
    service.ingest("s", &large[..64]).unwrap();
    assert_eq!(settled_helper_threads(1), 1);

    // The argument is ignored: any count still means one helper.
    let mut other = SketchService::new(4);
    assert_eq!(settled_helper_threads(2), 2);
    other.create_session("s", spec).unwrap();
    other.ingest("s", &large).unwrap();
    assert_eq!(settled_helper_threads(2), 2);
    assert_eq!(other.estimate("s").unwrap(), service.estimate("s").unwrap());

    drop(other);
    drop(service);
    assert_eq!(settled_helper_threads(0), 0);
}
