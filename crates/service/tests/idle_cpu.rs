//! The idle-CPU gate: 128 open-but-silent connections must cost (near) zero
//! CPU, because the event loop sits blocked in the kernel.
//!
//! The figure is the whole process's CPU time, so this file holds exactly one
//! test: its own binary keeps sibling tests from polluting the measurement.

// Tests assert on infallible setup with `unwrap`/`expect`; the
// production-code ban (clippy `disallowed-methods`, see clippy.toml) does
// not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_service::{serve, ServerConfig, SketchService, TenantDirectory, TenantQuota};
use std::net::TcpStream;
use std::time::Duration;

/// CPU seconds this process has consumed (user + system), from
/// `/proc/self/stat`. `None` off Linux or if the file is unreadable.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    let ticks_per_sec = 100.0; // USER_HZ on every supported target
    Some((utime + stime) / ticks_per_sec)
}

#[test]
fn idle_connections_cost_no_cpu() {
    let mut directory = TenantDirectory::new();
    directory
        .register("idle", "tok-idle", TenantQuota::unlimited())
        .expect("register tenant");
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let conns: Vec<_> = (0..128)
        .map(|_| TcpStream::connect(handle.local_addr()).expect("connect idle client"))
        .collect();
    // Let accept/registration settle before the measurement window.
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_seconds();
    std::thread::sleep(Duration::from_millis(500));
    let after = process_cpu_seconds();
    drop(conns);
    handle.shutdown();
    let (Some(before), Some(after)) = (before, after) else {
        eprintln!("idle-CPU gate: cannot measure process CPU on this platform");
        return;
    };
    let spent = after - before;
    // The whole process (shard helpers, net workers, loop) should be parked;
    // 100 ms of CPU over a 500 ms idle window is already an order of
    // magnitude above healthy and far below a busy-wait.
    assert!(
        spent <= 0.1,
        "128 idle connections burned {spent:.3}s CPU in a 0.5s window (expected ~0)"
    );
}
