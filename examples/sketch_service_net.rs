//! The TCP front-end of the sketch service: newline-delimited JSON over a
//! real socket, with tenant auth, per-tenant session namespacing and
//! quotas.
//!
//! Run with `cargo run --release --example sketch_service_net`.
//!
//! The demo binds a loopback server, registers two tenants — `acme` on a
//! tight budget and `globex` unlimited — and drives both over plain
//! `TcpStream`s. Both tenants create a session literally named
//! `"visitors"` (namespacing keeps them separate), `acme` runs into its
//! request quota (a typed `quota_exceeded` line, not a dropped
//! connection), and a hostile oversized line is answered with
//! `frame_too_large` while the connection stays usable.
//!
//! The second act is the readiness-driven front-end (DESIGN.md §10)
//! under load: 64 concurrent pipelining clients feed one shared session
//! through the epoll event loop, and the merged estimate still matches a
//! single-client run — interleaving is routing, never semantics.

use mcf0::hashing::Xoshiro256StarStar;
use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    serve, CommandReply, Request, Response, ServerConfig, ServiceCommand, SessionSpec, SketchKind,
    SketchService, TenantDirectory, TenantQuota,
};
use mcf0::streaming::workloads::planted_f0_stream;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One tenant's connection: requests out, decoded responses back.
struct Client {
    token: &'static str,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, token: &'static str) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client {
            token,
            writer,
            reader,
            next_id: 0,
        }
    }

    fn call(&mut self, command: ServiceCommand) -> Response {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            token: self.token.to_string(),
            command,
        };
        self.writer
            .write_all(encode_line(&request).as_bytes())
            .unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        serde_json::from_str::<Response>(line.trim_end()).unwrap()
    }
}

fn main() {
    // A service behind a loopback listener; port 0 picks a free one.
    let mut directory = TenantDirectory::new();
    let tight = TenantQuota {
        max_requests: Some(6),
        max_space_bits: None,
    };
    directory.register("acme", "tok-acme", tight).unwrap();
    directory
        .register("globex", "tok-globex", TenantQuota::unlimited())
        .unwrap();
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr();
    println!("serving on {addr}");

    let mut acme = Client::connect(addr, "tok-acme");
    let mut globex = Client::connect(addr, "tok-globex");

    // Both tenants own a session named "visitors": the server rewrites the
    // names to `acme::visitors` / `globex::visitors` internally, so the
    // flat service namespace never collides.
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 150, 9, 2021);
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let population = planted_f0_stream(&mut rng, 32, 12_000, 12_000);
    for (client, slice) in [
        (&mut acme, &population[..7_000]),
        (&mut globex, &population[5_000..]),
    ] {
        let created = client.call(ServiceCommand::Create {
            name: "visitors".to_string(),
            spec,
        });
        assert_eq!(created.body, Ok(CommandReply::Done));
        client
            .call(ServiceCommand::Ingest {
                name: "visitors".to_string(),
                items: slice.to_vec(),
            })
            .body
            .unwrap();
    }
    for client in [&mut acme, &mut globex] {
        let reply = client.call(ServiceCommand::Estimate {
            name: "visitors".to_string(),
        });
        println!(
            "{:>6}'s \"visitors\" ≈ {:?} distinct (seq {:?})",
            client.token.trim_start_matches("tok-"),
            reply.body.unwrap(),
            reply.seq.unwrap(),
        );
    }

    // `acme` has now spent 3 of its 6 requests; burn the rest and watch the
    // typed quota rejection — `globex` is unaffected.
    loop {
        let reply = acme.call(ServiceCommand::SpaceBits {
            name: "visitors".to_string(),
        });
        match reply.body {
            Ok(_) => continue,
            Err(err) => {
                println!(
                    "acme request {}: [{}] {}",
                    acme.next_id, err.code, err.message
                );
                assert_eq!(reply.seq, None, "rejected before reaching the service");
                break;
            }
        }
    }
    let still_fine = globex.call(ServiceCommand::SpaceBits {
        name: "visitors".to_string(),
    });
    println!("globex unaffected: {:?}", still_fine.body.unwrap());

    // Hostile input: a line past the frame cap is rejected with a typed
    // error — and the very same connection keeps working.
    let mut hostile = vec![b'x'; mcf0::service::net::proto::MAX_FRAME_BYTES + 1];
    hostile.push(b'\n');
    globex.writer.write_all(&hostile).unwrap();
    let mut line = String::new();
    globex.reader.read_line(&mut line).unwrap();
    let refused = serde_json::from_str::<Response>(line.trim_end()).unwrap();
    println!(
        "oversized line: [{}] (connection stays open)",
        refused.body.unwrap_err().code
    );
    let proof = globex.call(ServiceCommand::Estimate {
        name: "visitors".to_string(),
    });
    println!("same connection, next request: {:?}", proof.body.unwrap());

    handle.shutdown();
    println!("server drained and shut down");

    // ── Act two: the event loop under 64 concurrent clients. ───────────
    //
    // One epoll event-loop thread owns every connection; a fixed worker
    // pool executes the frames; responses are coalesced into one flush
    // per readiness cycle. Each client pipelines all of its ingest
    // batches before reading a single reply.
    let mut directory = TenantDirectory::new();
    directory
        .register("globex", "tok-globex", TenantQuota::unlimited())
        .unwrap();
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr();
    println!("\nsecond server on {addr} (64 pipelining clients)");

    let mut setup = Client::connect(addr, "tok-globex");
    let created = setup.call(ServiceCommand::Create {
        name: "crowd".to_string(),
        spec,
    });
    assert_eq!(created.body, Ok(CommandReply::Done));

    const CLIENTS: usize = 64;
    let shares: Vec<Vec<Vec<u64>>> = (0..CLIENTS)
        .map(|c| {
            population
                .chunks(200)
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == c)
                .map(|(_, batch)| batch.to_vec())
                .collect()
        })
        .collect();
    let start = std::time::Instant::now();
    let joins: Vec<_> = shares
        .into_iter()
        .map(|batches| {
            std::thread::spawn(move || {
                let writer = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(writer.try_clone().unwrap());
                let mut writer = writer;
                // Pipeline: every request on the wire before the first read.
                for (i, items) in batches.iter().enumerate() {
                    let request = Request {
                        id: i as u64,
                        token: "tok-globex".to_string(),
                        command: ServiceCommand::Ingest {
                            name: "crowd".to_string(),
                            items: items.clone(),
                        },
                    };
                    writer.write_all(encode_line(&request).as_bytes()).unwrap();
                }
                for i in 0..batches.len() {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0);
                    let response = serde_json::from_str::<Response>(line.trim_end()).unwrap();
                    assert_eq!(response.id, Some(i as u64), "per-connection FIFO");
                    response.body.unwrap();
                }
            })
        })
        .collect();
    for join in joins {
        join.join().unwrap();
    }
    let elapsed = start.elapsed();
    let estimate = match setup
        .call(ServiceCommand::Estimate {
            name: "crowd".to_string(),
        })
        .body
        .unwrap()
    {
        CommandReply::Estimate(x) => x,
        other => panic!("Estimate replied {other:?}"),
    };
    println!(
        "64 clients ingested {} items in {:.1?}; \"crowd\" ≈ {estimate:.0} distinct",
        population.len(),
        elapsed,
    );

    handle.shutdown();
    println!("second server drained and shut down");
}
