//! Scale and liveness tests for the evented front-end: slow readers
//! (partial-write resumption), hundreds of idle connections, and a
//! durable-backed server killed and recovered mid-trace.
//!
//! The differential suite (`socket_differential.rs`) pins wire semantics;
//! this suite pins the *mechanics* the readiness-driven backend adds —
//! that a stalled peer costs a parked buffer rather than a thread, that
//! idle connections are free, and that [`mcf0_service::serve`] being
//! generic over [`mcf0_service::ApplyService`] really does carry the
//! crash-safe service across a kill/recover cycle.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_service::net::proto::encode_line;
use mcf0_service::{
    serve, DurableConfig, DurableSketchService, ReferenceService, Request, Response, ServerConfig,
    ServiceCommand, SessionSpec, SketchKind, SketchService, TenantDirectory, TenantQuota,
    WireError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Self-cleaning scratch directory (the container has no tempfile crate;
/// process id + a counter keep parallel test binaries apart).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("mcf0-sockscale-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn directory() -> TenantDirectory {
    let mut directory = TenantDirectory::new();
    directory
        .register("alpha", "tok-alpha", TenantQuota::unlimited())
        .unwrap();
    directory
}

fn request(id: u64, command: ServiceCommand) -> Request {
    Request {
        id,
        token: "tok-alpha".to_string(),
        command,
    }
}

/// The reply line the reference interpreter predicts for `command` at
/// acknowledged position `seq` (single client ⇒ seq is the command index).
fn expected_line(
    reference: &mut ReferenceService,
    id: u64,
    seq: u64,
    command: &ServiceCommand,
) -> String {
    let scoped = TenantDirectory::scope_command("alpha", command);
    let body = reference
        .apply(&scoped)
        .map_err(|e| WireError::from_service(&e));
    encode_line(&Response {
        id: Some(id),
        seq: Some(seq),
        body,
    })
}

/// A slow reader: hundreds of pipelined `save` requests (large snapshot
/// documents) written without reading a single reply, then a stall. The
/// server's write-backs overrun the socket buffers mid-response, so the
/// flush must park on `WouldBlock` and resume at the exact byte offset —
/// every reply line still byte-identical to the reference interpreter.
#[test]
fn slow_reader_gets_byte_identical_pipelined_responses() {
    const SAVES: usize = 200;
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 256, 7, 11);
    let mut commands = vec![
        ServiceCommand::Create {
            name: "s".to_string(),
            spec,
        },
        ServiceCommand::Ingest {
            name: "s".to_string(),
            items: (0..4000u64)
                .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15) & 0xFFFF_FFFF)
                .collect(),
        },
    ];
    for _ in 0..SAVES {
        commands.push(ServiceCommand::Save {
            name: "s".to_string(),
        });
    }
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory(),
        ServerConfig::default(),
    )
    .unwrap();
    let writer = TcpStream::connect(handle.local_addr()).unwrap();
    writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut writer = writer;
    // Pipeline everything without reading a byte back…
    for (i, command) in commands.iter().enumerate() {
        writer
            .write_all(encode_line(&request(i as u64, command.clone())).as_bytes())
            .unwrap();
    }
    // …and stall, forcing the server's response backlog to overrun the
    // socket buffers mid-line.
    std::thread::sleep(Duration::from_millis(300));
    let mut reference = ReferenceService::new();
    let mut total_bytes = 0usize;
    for (i, command) in commands.iter().enumerate() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "reply {i}");
        total_bytes += line.len();
        let want = expected_line(&mut reference, i as u64, i as u64, command);
        assert_eq!(line, want, "reply {i}");
    }
    // The scenario is only meaningful if the backlog genuinely dwarfed the
    // socket buffers; keep the pressure honest as snapshots evolve.
    assert!(
        total_bytes > 2 << 20,
        "responses too small to stall a socket: {total_bytes} bytes"
    );
    handle.shutdown();
}

/// 256 connections held open and idle do not exhaust the evented server
/// (default ceiling is ≥ 1024), and the front-end stays fully responsive:
/// the first, a middle, and the last connection all still round-trip.
#[test]
fn evented_sustains_256_idle_connections() {
    assert!(
        ServerConfig::default().max_connections >= 1024,
        "default connection ceiling regressed below 1024"
    );
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conns = Vec::new();
    for _ in 0..256 {
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conns.push(stream);
    }
    // Everything idles; then a few arbitrary connections prove the loop is
    // alive and nobody was refused or dropped.
    std::thread::sleep(Duration::from_millis(100));
    let ping = ServiceCommand::SpaceBits {
        name: "nope".to_string(),
    };
    for (k, index) in [0usize, 128, 255].into_iter().enumerate() {
        let mut reader = BufReader::new(conns[index].try_clone().unwrap());
        conns[index]
            .write_all(encode_line(&request(k as u64, ping.clone())).as_bytes())
            .unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "conn {index}");
        let response: Response = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(response.id, Some(k as u64), "conn {index}");
        assert_eq!(response.seq, Some(k as u64), "conn {index}");
    }
    drop(conns);
    handle.shutdown();
}

/// Descriptors of this process that are the server's end of a connection
/// to the listener on `port`: `/proc/self/fd` joined with `/proc/net/tcp`
/// on the socket inode, so tests running in parallel do not count.
#[cfg(target_os = "linux")]
fn server_side_fds(port: u16) -> usize {
    const LISTEN: &str = "0A";
    let table = std::fs::read_to_string("/proc/self/net/tcp").unwrap();
    let sockets: std::collections::HashSet<String> = table
        .lines()
        .skip(1)
        .filter_map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let local_port = u16::from_str_radix(cols[1].rsplit(':').next()?, 16).ok()?;
            (local_port == port && cols[3] != LISTEN).then(|| format!("socket:[{}]", cols[9]))
        })
        .collect();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .filter(|target| target.to_str().is_some_and(|t| sockets.contains(t)))
        .count()
}

/// A connection costs the server one descriptor, so `max_connections`
/// live connections fit under an fd limit of about that size (a second,
/// `dup`ed descriptor per connection would park the listener on `EMFILE`
/// at half the advertised cap).
#[cfg(target_os = "linux")]
#[test]
fn a_connection_costs_the_server_one_descriptor() {
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory(),
        ServerConfig::default(),
    )
    .unwrap();
    let idle: Vec<TcpStream> = (0..63)
        .map(|_| TcpStream::connect(handle.local_addr()).unwrap())
        .collect();
    // The loop accepts in connection order: once the 64th connection is
    // answered, all 64 are established on the server side.
    let mut last = Client::connect(&handle);
    let ping = ServiceCommand::SpaceBits {
        name: "nope".to_string(),
    };
    assert!(!last.round_trip_raw(&request(0, ping)).is_empty());
    assert_eq!(server_side_fds(handle.local_addr().port()), 64);
    drop(idle);
    handle.shutdown();
}

/// `serve` is generic over [`mcf0_service::ApplyService`]: a
/// durable-backed server is killed mid-trace and a recovered one picks up
/// the same store — the write-ahead log carries every acknowledged command
/// across the crash, and the revived server's replies stay byte-identical
/// to a reference replay of the full history.
#[test]
fn durable_backed_server_recovers_after_kill_mid_trace() {
    let store = TempDir::new("kill-recover");
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 64, 5, 7);
    let phase1 = [
        ServiceCommand::Create {
            name: "s".to_string(),
            spec,
        },
        ServiceCommand::Ingest {
            name: "s".to_string(),
            items: (0..500u64).collect(),
        },
        ServiceCommand::Estimate {
            name: "s".to_string(),
        },
    ];
    let phase2 = [
        ServiceCommand::Estimate {
            name: "s".to_string(),
        },
        ServiceCommand::Ingest {
            name: "s".to_string(),
            items: (500..900u64).collect(),
        },
        ServiceCommand::Estimate {
            name: "s".to_string(),
        },
        ServiceCommand::Save {
            name: "s".to_string(),
        },
    ];
    let mut reference = ReferenceService::new();

    // Phase 1: a durable-backed evented server takes the opening trace…
    let (durable, _report) =
        DurableSketchService::open(&store.0, 1, DurableConfig::default()).unwrap();
    let handle = serve("127.0.0.1:0", durable, directory(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle);
    for (i, command) in phase1.iter().enumerate() {
        let got = client.round_trip_raw(&request(i as u64, command.clone()));
        let want = expected_line(&mut reference, i as u64, i as u64, command);
        assert_eq!(got, want, "phase 1 reply {i}");
    }
    // …and is killed: shutdown joins the loop and workers and drops the
    // durable service (every acknowledged command already sits in the WAL).
    drop(client);
    handle.shutdown();

    // Phase 2: recovery replays the log; a fresh server over the same
    // store continues the trace. `seq` is per-server-lifetime, so the
    // revived server numbers from 0 again.
    let (recovered, report) =
        DurableSketchService::open(&store.0, 1, DurableConfig::default()).unwrap();
    let mutations = phase1.iter().filter(|c| c.mutates()).count();
    assert_eq!(
        report.replayed, mutations,
        "every acknowledged mutation must come back from the WAL"
    );
    let handle = serve(
        "127.0.0.1:0",
        recovered,
        directory(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&handle);
    for (i, command) in phase2.iter().enumerate() {
        let got = client.round_trip_raw(&request(100 + i as u64, command.clone()));
        let want = expected_line(&mut reference, 100 + i as u64, i as u64, command);
        assert_eq!(got, want, "phase 2 reply {i}");
    }
    handle.shutdown();
}

/// A minimal blocking test client (mirrors the differential suite's).
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &mcf0_service::ServerHandle) -> Self {
        let writer = TcpStream::connect(handle.local_addr()).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn round_trip_raw(&mut self, request: &Request) -> String {
        self.writer
            .write_all(encode_line(request).as_bytes())
            .unwrap();
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0);
        line
    }
}
