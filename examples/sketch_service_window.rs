//! Sliding-window cardinality over TCP: per-source distinct counts with a
//! threshold alert, plus set-algebra queries across sources.
//!
//! Run with `cargo run --release --example sketch_service_window`.
//!
//! The demo is a miniature flow monitor. Two ingest points (`edge-1`,
//! `edge-2`) each own a *windowed* session counting distinct client ids
//! over the last 3 epochs — epochs are caller-supplied ticks (a minute, a
//! log rotation, a batch boundary), never wall clock, so every run of this
//! example prints the same numbers. Each tick the monitor:
//!
//! 1. ingests the tick's traffic into the current epoch,
//! 2. `advance`s the ring (retiring the epoch that just left the window),
//! 3. reads `estimate_window` per source and raises an alert when the
//!    3-epoch distinct count crosses a threshold — a scan spike stays
//!    visible for exactly the window length and then ages out, and
//! 4. asks for the `jaccard_estimate` between the two sources: the spike
//!    traffic hits both edges, so overlap jumps with it.
//!
//! The sessions share one spec (same seed), which is what makes the
//! set-algebra queries well-defined: inclusion–exclusion over a scratch
//! merge needs identical hash draws (DESIGN.md §11). The epilogue shows
//! the typed failure modes — a regressed epoch and a windowed query on an
//! unwindowed session are error *lines*, not panics or dropped
//! connections.

use mcf0::hashing::Xoshiro256StarStar;
use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    serve, CommandReply, Request, Response, ServerConfig, ServiceCommand, SessionSpec, SketchKind,
    SketchService, TenantDirectory, TenantQuota,
};
use mcf0::streaming::workloads::planted_f0_stream;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One authenticated connection: requests out, decoded responses back.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client {
            writer,
            reader,
            next_id: 0,
        }
    }

    fn call(&mut self, command: ServiceCommand) -> Response {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            token: "tok-monitor".to_string(),
            command,
        };
        self.writer
            .write_all(encode_line(&request).as_bytes())
            .unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        serde_json::from_str::<Response>(line.trim_end()).unwrap()
    }

    fn estimate_window(&mut self, name: &str) -> f64 {
        match self.call(ServiceCommand::EstimateWindow { name: name.into() }) {
            Response {
                body: Ok(CommandReply::Estimate(e)),
                ..
            } => e,
            other => panic!("estimate_window: unexpected reply {other:?}"),
        }
    }
}

const WINDOW: usize = 3;
const ALERT_AT: f64 = 2_500.0;

fn main() {
    let mut directory = TenantDirectory::new();
    directory
        .register("monitor", "tok-monitor", TenantQuota::unlimited())
        .unwrap();
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .unwrap();
    println!("flow monitor on {}", handle.local_addr());
    let mut client = Client::connect(handle.local_addr());

    // One windowed session per ingest point. Identical specs (seed
    // included): merges and set-algebra queries require shared hash draws.
    let spec = SessionSpec::new(SketchKind::Minimum, 32, 150, 9, 77).with_window(WINDOW);
    for name in ["edge-1", "edge-2"] {
        let created = client.call(ServiceCommand::Create {
            name: name.to_string(),
            spec,
        });
        assert_eq!(created.body, Ok(CommandReply::Done));
    }

    // Deterministic traffic: each edge sees ~600 distinct clients per tick
    // from its own population, except tick 3, when a scan hits both edges
    // with the same burst of 2,000 fresh sources.
    let mut rng = Xoshiro256StarStar::seed_from_u64(2021);
    let pool_1 = planted_f0_stream(&mut rng, 32, 4_000, 4_000);
    let pool_2 = planted_f0_stream(&mut rng, 32, 4_000, 4_000);
    let scan = planted_f0_stream(&mut rng, 32, 2_000, 2_000);

    println!("window = last {WINDOW} epochs, alert at > {ALERT_AT} distinct clients\n");
    for tick in 0u64..8 {
        if tick > 0 {
            // The caller owns the clock: advancing retires the epoch that
            // left the window on both partials of both sessions.
            for name in ["edge-1", "edge-2"] {
                client
                    .call(ServiceCommand::Advance {
                        name: name.to_string(),
                        epoch: tick,
                    })
                    .body
                    .unwrap();
            }
        }
        let at = (tick as usize * 600) % 3_000;
        let mut batches = vec![
            ("edge-1", pool_1[at..at + 600].to_vec()),
            ("edge-2", pool_2[at..at + 600].to_vec()),
        ];
        if tick == 3 {
            batches.push(("edge-1", scan.clone()));
            batches.push(("edge-2", scan.clone()));
        }
        for (name, items) in batches {
            client
                .call(ServiceCommand::Ingest {
                    name: name.to_string(),
                    items,
                })
                .body
                .unwrap();
        }

        let e1 = client.estimate_window("edge-1");
        let e2 = client.estimate_window("edge-2");
        let jaccard = match client
            .call(ServiceCommand::JaccardEstimate {
                a: "edge-1".into(),
                b: "edge-2".into(),
            })
            .body
            .unwrap()
        {
            CommandReply::Estimate(j) => j,
            other => panic!("jaccard: unexpected reply {other:?}"),
        };
        let alarm = |e: f64| if e > ALERT_AT { "  ** ALERT **" } else { "" };
        println!(
            "epoch {tick}: edge-1 ≈ {e1:>6.0}{}  edge-2 ≈ {e2:>6.0}{}  overlap J ≈ {jaccard:.3}",
            alarm(e1),
            alarm(e2),
        );
    }
    println!("\nthe tick-3 scan aged out after {WINDOW} epochs; overlap fell back with it");

    // Typed failure modes, over the same connection.
    let stale = client.call(ServiceCommand::Advance {
        name: "edge-1".into(),
        epoch: 2,
    });
    let err = stale.body.unwrap_err();
    println!("replaying epoch 2: [{}] {}", err.code, err.message);

    client
        .call(ServiceCommand::Create {
            name: "totals".into(),
            spec: SessionSpec::new(SketchKind::Minimum, 32, 150, 9, 77),
        })
        .body
        .unwrap();
    let not_windowed = client.call(ServiceCommand::EstimateWindow {
        name: "totals".into(),
    });
    let err = not_windowed.body.unwrap_err();
    println!(
        "windowed query on \"totals\": [{}] {}",
        err.code, err.message
    );

    handle.shutdown();
    println!("server drained and shut down");
}
