//! The socket differential harness: the TCP front-end must add *nothing*
//! to the command semantics.
//!
//! Every test drives a real loopback listener ([`mcf0_service::serve`])
//! and pins the server's reply lines **byte-identical** to what the
//! in-process [`ReferenceService`] produces for the same commands — the
//! tenant rewrite ([`TenantDirectory::scope_command`]) applied, errors
//! mapped through [`WireError::from_service`], lines rendered by the same
//! [`encode_line`]. For interleaved multi-client traffic the commands are
//! replayed in acknowledged (`seq`) order, which the server defines by its
//! core-lock acquisition order.
//!
//! On top of the differential pins: quota isolation (one tenant exhausting
//! its budget while another keeps succeeding) and connection sanity under
//! hostile input over the real socket.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_bench::service_support::random_trace;
use mcf0_service::net::proto::{encode_line, MAX_FRAME_BYTES};
use mcf0_service::{
    serve, CommandReply, ErrorCode, ReferenceService, Request, Response, ServerConfig,
    ServiceCommand, SessionSpec, SketchKind, SketchService, TenantDirectory, TenantQuota,
    TenantSketch, WireError,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const BITS: usize = 16;

/// Starts a loopback server with the given tenants registered.
fn start(tenants: &[(&str, &str, TenantQuota)]) -> mcf0_service::ServerHandle {
    let mut directory = TenantDirectory::new();
    for (id, token, quota) in tenants {
        directory.register(id, token, *quota).unwrap();
    }
    serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .unwrap()
}

/// A test client: one connection, line-at-a-time or pipelined.
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

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    fn send(&mut self, request: &Request) {
        self.send_raw(encode_line(request).as_bytes());
    }

    /// Reads one raw response line (newline included).
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        line
    }

    fn recv(&mut self) -> Response {
        let line = self.recv_line();
        serde_json::from_str::<Response>(line.trim_end()).unwrap()
    }

    /// Sends one request and returns the raw reply line.
    fn round_trip_raw(&mut self, request: &Request) -> String {
        self.send(request);
        self.recv_line()
    }

    /// Sends one request and returns the decoded reply.
    fn round_trip(&mut self, request: &Request) -> Response {
        self.send(request);
        self.recv()
    }
}

/// The reply line the reference interpreter predicts for `command` applied
/// by `tenant` at position `seq`.
fn expected_line(
    reference: &mut ReferenceService,
    tenant: &str,
    id: u64,
    seq: u64,
    command: &ServiceCommand,
) -> String {
    let scoped = TenantDirectory::scope_command(tenant, command);
    let body = reference
        .apply(&scoped)
        .map_err(|e| WireError::from_service(&e));
    encode_line(&Response {
        id: Some(id),
        seq: Some(seq),
        body,
    })
}

/// One tenant, one client: every reply line is byte-identical to the
/// reference interpreter's.
#[test]
fn single_client_replies_are_byte_identical_to_the_reference() {
    for seed in [7u64, 1234, 998877] {
        let trace = random_trace(seed, BITS, 40);
        let handle = start(&[("alpha", "tok-alpha", TenantQuota::unlimited())]);
        let mut client = Client::connect(&handle);
        let mut reference = ReferenceService::new();
        for (i, command) in trace.iter().enumerate() {
            let id = 100 + i as u64;
            let got = client.round_trip_raw(&Request {
                id,
                token: "tok-alpha".to_string(),
                command: command.clone(),
            });
            // Single client ⇒ seq is simply the command index.
            let want = expected_line(&mut reference, "alpha", id, i as u64, command);
            assert_eq!(got, want, "seed={seed} command {i}");
        }
        handle.shutdown();
    }
}

/// One pipelined line and what must come back for it.
enum Sent {
    /// A well-formed request: the reply is pinned against the reference
    /// interpreter at its `seq`.
    Command(ServiceCommand),
    /// Raw bytes rejected before the service sees them: a typed error with
    /// no `id` and no `seq`.
    Hostile(Vec<u8>, ErrorCode),
}

/// Every `(tenant, token, id_base, script)` client pipelines its whole
/// script on its own connection, all concurrently. Pins the wire's two
/// ordering contracts: per connection, reply *i* answers line *i*; across
/// connections, the `seq` values are exactly `0..n` and replaying the
/// commands in `seq` order against one reference reproduces every reply
/// line byte for byte — the acknowledged order fully explains the
/// interleaving.
fn pipelined_clients_replay_byte_identical_in_seq_order(
    handle: mcf0_service::ServerHandle,
    clients: Vec<(&'static str, &'static str, u64, Vec<Sent>)>,
) {
    let mut joins = Vec::new();
    for (tenant, token, id_base, script) in clients {
        let addr = handle.local_addr();
        joins.push(std::thread::spawn(move || {
            let writer = TcpStream::connect(addr).unwrap();
            writer
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut writer = writer;
            // Pipeline: write every line before reading any reply, so the
            // connections genuinely interleave at the server.
            for (i, sent) in script.iter().enumerate() {
                match sent {
                    Sent::Command(command) => {
                        let request = Request {
                            id: id_base + i as u64,
                            token: token.to_string(),
                            command: command.clone(),
                        };
                        writer.write_all(encode_line(&request).as_bytes()).unwrap();
                    }
                    Sent::Hostile(bytes, _) => writer.write_all(bytes).unwrap(),
                }
            }
            let mut lines = Vec::new();
            for _ in 0..script.len() {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).unwrap() > 0);
                lines.push(line);
            }
            (tenant, id_base, script, lines)
        }));
    }
    // Collect (seq, tenant, id, command, raw line) across all clients.
    let mut acknowledged = Vec::new();
    for join in joins {
        let (tenant, id_base, script, lines) = join.join().unwrap();
        for (i, (sent, line)) in script.iter().zip(&lines).enumerate() {
            let response = serde_json::from_str::<Response>(line.trim_end()).unwrap();
            match sent {
                Sent::Command(command) => {
                    // Per-connection replies come back in request order…
                    let id = id_base + i as u64;
                    assert_eq!(response.id, Some(id), "tenant {tenant}");
                    // …and every admitted command owns a seq slot.
                    let seq = response.seq.unwrap();
                    acknowledged.push((seq, tenant, id, command.clone(), line.clone()));
                }
                Sent::Hostile(_, code) => {
                    assert_eq!(response.id, None, "line {i} of {id_base}");
                    assert_eq!(response.seq, None, "line {i} of {id_base}");
                    assert_eq!(response.body.unwrap_err().code, *code);
                }
            }
        }
    }
    // The seq values are exactly 0..N with no gaps or duplicates.
    acknowledged.sort_by_key(|(seq, ..)| *seq);
    let seqs: Vec<u64> = acknowledged.iter().map(|(seq, ..)| *seq).collect();
    assert_eq!(seqs, (0..acknowledged.len() as u64).collect::<Vec<_>>());
    // Replaying in acknowledged order reproduces every line byte for byte.
    let mut reference = ReferenceService::new();
    for (seq, tenant, id, command, line) in &acknowledged {
        let want = expected_line(&mut reference, tenant, *id, *seq, command);
        assert_eq!(line, &want, "seq {seq} (tenant {tenant})");
    }
    handle.shutdown();
}

fn commands(trace: Vec<ServiceCommand>) -> Vec<Sent> {
    trace.into_iter().map(Sent::Command).collect()
}

/// Two tenants pipelining concurrently.
#[test]
fn interleaved_clients_replay_byte_identical_in_seq_order() {
    let handle = start(&[
        ("alpha", "tok-alpha", TenantQuota::unlimited()),
        ("beta", "tok-beta", TenantQuota::unlimited()),
    ]);
    let clients = vec![
        (
            "alpha",
            "tok-alpha",
            1000,
            commands(random_trace(42, BITS, 35)),
        ),
        (
            "beta",
            "tok-beta",
            2000,
            commands(random_trace(43, BITS, 35)),
        ),
    ];
    pipelined_clients_replay_byte_identical_in_seq_order(handle, clients);
}

/// More connections than pool workers: the pool is at most 8 threads, so
/// with 17 connections every sticky worker serves several of them at once.
/// All share one tenant — their sessions collide, so cross-connection
/// order decides reply *content* — and each script carries an undecodable
/// and an oversized line between the commands, whose rejections must keep
/// their place in the connection's reply order.
#[test]
fn more_connections_than_workers_keep_reply_order_and_seq_replay() {
    const CLIENTS: u64 = 2 * 8 + 1;
    let handle = start(&[("alpha", "tok-alpha", TenantQuota::unlimited())]);
    let mut oversized = vec![b'x'; MAX_FRAME_BYTES + 4096];
    oversized.push(b'\n');
    let clients = (0..CLIENTS)
        .map(|k| {
            let mut script = commands(random_trace(500 + k, BITS, 50));
            assert!(script.len() >= 64, "script too short to pipeline deep");
            let junk = Sent::Hostile(b"this is not json\n".to_vec(), ErrorCode::BadRequest);
            script.insert(script.len() / 3, junk);
            let huge = Sent::Hostile(oversized.clone(), ErrorCode::FrameTooLarge);
            script.insert(2 * script.len() / 3, huge);
            ("alpha", "tok-alpha", 1000 * (k + 1), script)
        })
        .collect();
    pipelined_clients_replay_byte_identical_in_seq_order(handle, clients);
}

/// Namespacing: both tenants own a session literally named `"sessions"`,
/// and neither sees the other's data.
#[test]
fn tenants_can_reuse_session_names_without_collision() {
    let handle = start(&[
        ("alpha", "tok-alpha", TenantQuota::unlimited()),
        ("beta", "tok-beta", TenantQuota::unlimited()),
    ]);
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 64, 5, 7);
    let mut alpha = Client::connect(&handle);
    let mut beta = Client::connect(&handle);
    let create = ServiceCommand::Create {
        name: "sessions".to_string(),
        spec,
    };
    for (client, token) in [(&mut alpha, "tok-alpha"), (&mut beta, "tok-beta")] {
        let response = client.round_trip(&Request {
            id: 1,
            token: token.to_string(),
            command: create.clone(),
        });
        assert_eq!(response.body, Ok(CommandReply::Done), "token {token}");
    }
    // Different ingests under the same name stay separate.
    for (client, token, items) in [
        (&mut alpha, "tok-alpha", vec![1u64, 2, 3]),
        (&mut beta, "tok-beta", vec![10u64, 11, 12, 13, 14]),
    ] {
        let response = client.round_trip(&Request {
            id: 2,
            token: token.to_string(),
            command: ServiceCommand::Ingest {
                name: "sessions".to_string(),
                items,
            },
        });
        assert_eq!(response.body, Ok(CommandReply::Done), "token {token}");
    }
    let estimate = |client: &mut Client, token: &str| {
        let response = client.round_trip(&Request {
            id: 3,
            token: token.to_string(),
            command: ServiceCommand::Estimate {
                name: "sessions".to_string(),
            },
        });
        match response.body {
            Ok(CommandReply::Estimate(x)) => x,
            other => panic!("estimate replied {other:?}"),
        }
    };
    assert_eq!(estimate(&mut alpha, "tok-alpha"), 3.0);
    assert_eq!(estimate(&mut beta, "tok-beta"), 5.0);
    handle.shutdown();
}

/// Request-count quotas: the capped tenant's sixth command is a typed
/// `quota_exceeded` with `seq: null`, while the unlimited tenant keeps
/// succeeding before, between and after.
#[test]
fn one_tenant_exhausting_requests_does_not_starve_another() {
    let capped = TenantQuota {
        max_requests: Some(5),
        max_space_bits: None,
    };
    let handle = start(&[
        ("small", "tok-small", capped),
        ("big", "tok-big", TenantQuota::unlimited()),
    ]);
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 64, 5, 7);
    let mut small = Client::connect(&handle);
    let mut big = Client::connect(&handle);
    let create = |name: &str| ServiceCommand::Create {
        name: name.to_string(),
        spec,
    };
    let touch = |name: &str| ServiceCommand::SpaceBits {
        name: name.to_string(),
    };
    // Both tenants set up one session (1 request each).
    for (client, token) in [(&mut small, "tok-small"), (&mut big, "tok-big")] {
        let response = client.round_trip(&Request {
            id: 0,
            token: token.to_string(),
            command: create("s"),
        });
        assert!(response.body.is_ok(), "token {token}");
    }
    // Interleave 7 more queries each: `small` has 4 requests left, so its
    // queries 5.. must be rejected while `big`'s all succeed.
    for i in 0..7u64 {
        let small_response = small.round_trip(&Request {
            id: 10 + i,
            token: "tok-small".to_string(),
            command: touch("s"),
        });
        let big_response = big.round_trip(&Request {
            id: 20 + i,
            token: "tok-big".to_string(),
            command: touch("s"),
        });
        assert!(big_response.body.is_ok(), "big query {i}");
        assert!(big_response.seq.is_some(), "big query {i}");
        if i < 4 {
            assert!(small_response.body.is_ok(), "small query {i}");
        } else {
            let err = small_response.body.unwrap_err();
            assert_eq!(err.code, ErrorCode::QuotaExceeded, "small query {i}");
            assert_eq!(
                err.message,
                "tenant `small` exhausted its request quota (5 requests)"
            );
            // Never admitted ⇒ no acknowledged-order slot.
            assert_eq!(small_response.seq, None);
        }
    }
    handle.shutdown();
}

/// Space quotas: a tenant sized for one session cannot create a second,
/// a `drop` refunds the charge, and a roomier tenant is unaffected.
#[test]
fn space_quota_is_charged_on_create_and_refunded_on_drop() {
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 64, 5, 7);
    let bits = TenantSketch::new(&spec).space_bits() as u64;
    let cramped = TenantQuota {
        max_requests: None,
        max_space_bits: Some(3 * bits), // room for exactly three sessions
    };
    let handle = start(&[
        ("cramped", "tok-cramped", cramped),
        ("roomy", "tok-roomy", TenantQuota::unlimited()),
    ]);
    let mut client = Client::connect(&handle);
    let create = |name: &str| ServiceCommand::Create {
        name: name.to_string(),
        spec,
    };
    let request = |id: u64, token: &str, command: ServiceCommand| Request {
        id,
        token: token.to_string(),
        command,
    };
    // Two sessions fit (usage: 2·bits of 3·bits).
    for name in ["a", "b"] {
        let response = client.round_trip(&request(1, "tok-cramped", create(name)));
        assert_eq!(response.body, Ok(CommandReply::Done), "create {name}");
    }
    // A duplicate create passes the space pre-check (headroom exists) but
    // fails at the service — a *service* rejection, so it owns a seq slot…
    let r3 = client.round_trip(&request(3, "tok-cramped", create("b")));
    assert_eq!(r3.body.unwrap_err().code, ErrorCode::DuplicateSession);
    assert!(r3.seq.is_some(), "service rejections own a seq slot");
    // …and must not have charged: the third distinct session still fits
    // exactly (usage: 3·bits of 3·bits).
    let r4 = client.round_trip(&request(4, "tok-cramped", create("c")));
    assert_eq!(r4.body, Ok(CommandReply::Done));
    // A fourth does not: typed quota rejection, never applied (seq: null).
    let r5 = client.round_trip(&request(5, "tok-cramped", create("d")));
    let err = r5.body.unwrap_err();
    assert_eq!(err.code, ErrorCode::QuotaExceeded);
    assert!(
        err.message.contains("space quota exceeded"),
        "message: {}",
        err.message
    );
    assert_eq!(r5.seq, None);
    // The other tenant is unaffected by the rejection.
    let r6 = client.round_trip(&request(6, "tok-roomy", create("d")));
    assert_eq!(r6.body, Ok(CommandReply::Done));
    // Dropping a session refunds its charge, so the fourth create now fits.
    let r7 = client.round_trip(&request(
        7,
        "tok-cramped",
        ServiceCommand::Drop {
            name: "a".to_string(),
        },
    ));
    assert_eq!(r7.body, Ok(CommandReply::Done));
    let r8 = client.round_trip(&request(8, "tok-cramped", create("d")));
    assert_eq!(r8.body, Ok(CommandReply::Done));
    handle.shutdown();
}

/// Hostile input over the real socket: junk, invalid UTF-8 and oversized
/// lines each produce one typed error line and leave the connection fully
/// usable; an unknown token is `auth_failed`; a torn trailing line closes
/// silently without wedging the listener.
#[test]
fn hostile_lines_get_typed_errors_and_the_connection_stays_sane() {
    let handle = start(&[("alpha", "tok-alpha", TenantQuota::unlimited())]);
    let mut client = Client::connect(&handle);

    // 1. Well-encoded junk → bad_request, no id, no seq.
    client.send_raw(b"this is not json\n");
    let response = client.recv();
    assert_eq!(response.id, None);
    assert_eq!(response.seq, None);
    assert_eq!(response.body.unwrap_err().code, ErrorCode::BadRequest);

    // 2. Invalid UTF-8 → bad_frame.
    client.send_raw(&[0xFF, 0xFE, 0x80, b'\n']);
    assert_eq!(client.recv().body.unwrap_err().code, ErrorCode::BadFrame);

    // 3. A line past the frame cap → frame_too_large, without the server
    //    buffering the whole thing.
    let mut huge = vec![b'x'; MAX_FRAME_BYTES + 4096];
    huge.push(b'\n');
    client.send_raw(&huge);
    let response = client.recv();
    assert_eq!(response.body.unwrap_err().code, ErrorCode::FrameTooLarge);
    assert_eq!(response.seq, None);

    // 4. The same connection still serves real traffic — and this is the
    //    first command to *reach the service*, so it gets seq 0.
    let response = client.round_trip(&Request {
        id: 9,
        token: "tok-alpha".to_string(),
        command: ServiceCommand::Estimate {
            name: "nope".to_string(),
        },
    });
    assert_eq!(response.id, Some(9));
    assert_eq!(response.seq, Some(0));
    assert_eq!(response.body.unwrap_err().code, ErrorCode::UnknownSession);

    // 5. Unknown token → auth_failed, id echoed, no seq.
    let response = client.round_trip(&Request {
        id: 10,
        token: "tok-wrong".to_string(),
        command: ServiceCommand::Estimate {
            name: "nope".to_string(),
        },
    });
    assert_eq!(response.id, Some(10));
    assert_eq!(response.seq, None);
    assert_eq!(response.body.unwrap_err().code, ErrorCode::AuthFailed);

    // 6. A torn trailing line (bytes, no newline, hang up): the server
    //    answers nothing and closes; the listener is unharmed.
    {
        let mut torn = TcpStream::connect(handle.local_addr()).unwrap();
        torn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        torn.write_all(b"{\"id\":1,\"token\":\"tok-alpha\"")
            .unwrap();
        torn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        torn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "torn line must not be answered: {rest:?}");
    }
    let mut fresh = Client::connect(&handle);
    let response = fresh.round_trip(&Request {
        id: 11,
        token: "tok-alpha".to_string(),
        command: ServiceCommand::SpaceBits {
            name: "nope".to_string(),
        },
    });
    assert_eq!(response.seq, Some(1));
    assert_eq!(response.body.unwrap_err().code, ErrorCode::UnknownSession);
    handle.shutdown();
}

/// A `create` whose spec no sketch can be drawn from, or whose nominal size
/// exceeds `MAX_SESSION_BITS`, and an ingest of items outside the session's
/// universe, each get one typed `bad_request` reply byte-identical to the
/// reference's; the same connection then creates and fills a valid session.
#[test]
fn hostile_specs_and_items_get_bad_request_and_the_connection_carries_on() {
    let handle = start(&[("alpha", "tok-alpha", TenantQuota::unlimited())]);
    let mut client = Client::connect(&handle);
    let mut reference = ReferenceService::new();
    let spec = SessionSpec::new(SketchKind::Minimum, 8, 12, 3, 7);
    let create = |spec| ServiceCommand::Create {
        name: "s".to_string(),
        spec,
    };
    let ingest = |items: Vec<u64>| ServiceCommand::Ingest {
        name: "s".to_string(),
        items,
    };
    let script = [
        (
            create(SessionSpec {
                universe_bits: 65,
                ..spec
            }),
            Some(ErrorCode::BadRequest),
        ),
        (
            create(SessionSpec { thresh: 0, ..spec }),
            Some(ErrorCode::BadRequest),
        ),
        (
            create(SessionSpec {
                rows: 1_000_000_000,
                ..spec
            }),
            Some(ErrorCode::BadRequest),
        ),
        (
            create(SessionSpec {
                epsilon: 1e-300,
                ..SessionSpec::new(SketchKind::Estimation, 64, 150, 9, 7)
            }),
            Some(ErrorCode::BadRequest),
        ),
        (create(spec), None),
        (ingest(vec![1, 300]), Some(ErrorCode::BadRequest)),
        (ingest(vec![1, 255]), None),
        (ServiceCommand::Estimate { name: "s".into() }, None),
    ];
    for (seq, (command, code)) in script.into_iter().enumerate() {
        let id = 40 + seq as u64;
        let got = client.round_trip_raw(&Request {
            id,
            token: "tok-alpha".to_string(),
            command: command.clone(),
        });
        let want = expected_line(&mut reference, "alpha", id, seq as u64, &command);
        assert_eq!(got, want, "{command:?}");
        let body = serde_json::from_str::<Response>(got.trim_end())
            .unwrap()
            .body;
        assert_eq!(body.err().map(|e| e.code), code, "{command:?}");
    }
    handle.shutdown();
}

/// The connection cap: connection `max_connections + 1` is refused with one
/// typed `server_busy` line and closed, while established connections keep
/// working.
#[test]
fn over_cap_connections_are_refused_with_server_busy() {
    let mut directory = TenantDirectory::new();
    directory
        .register("alpha", "tok-alpha", TenantQuota::unlimited())
        .unwrap();
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig { max_connections: 1 },
    )
    .unwrap();
    let mut first = Client::connect(&handle);
    // Prove the first connection is live (and counted by the loop) before
    // opening the over-cap one.
    let ping = Request {
        id: 0,
        token: "tok-alpha".to_string(),
        command: ServiceCommand::SpaceBits {
            name: "nope".to_string(),
        },
    };
    assert!(first.round_trip(&ping).seq.is_some());
    let mut second = Client::connect(&handle);
    let refusal = second.recv();
    assert_eq!(refusal.id, None);
    assert_eq!(refusal.seq, None);
    assert_eq!(refusal.body.unwrap_err().code, ErrorCode::ServerBusy);
    // The refused socket is closed…
    let mut rest = Vec::new();
    second.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // …and the established connection is untouched.
    assert_eq!(first.round_trip(&ping).seq, Some(1));
    handle.shutdown();
}
