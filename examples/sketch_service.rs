//! The multi-tenant sketch service: named sessions, batched ingestion,
//! pairwise merge, and serde-based save/restore.
//!
//! Run with `cargo run --release --example sketch_service`.
//!
//! Three tenants share one service: two regional distinct-counter
//! sessions drawn from the same spec (so they stay mergeable — think one
//! logical counter fed from two ingest pipelines) and an AMS F2 session
//! watching the same traffic's repeat skew. The demo merges the regions,
//! snapshots the merged session to JSON, and restores it into a brand-new
//! service — every estimate unchanged, because the service's two-partial
//! split of large batches, merging and save/restore are pure routing over
//! the underlying sketches.

use mcf0::hashing::Xoshiro256StarStar;
use mcf0::service::{SessionSpec, SketchKind, SketchService};
use mcf0::streaming::workloads::planted_f0_stream;

fn main() {
    let mut service = SketchService::new(1);

    // Two regions, one spec: identical hash draws keep them mergeable.
    let counter_spec = SessionSpec::new(SketchKind::Minimum, 32, 150, 9, 2021);
    service.create_session("visitors/eu", counter_spec).unwrap();
    service.create_session("visitors/us", counter_spec).unwrap();
    // AMS sessions read `rows × columns` from the spec (`columns` defaults
    // to `thresh` in `SessionSpec::new`).
    let f2_spec = SessionSpec::new(SketchKind::Ams, 32, 200, 7, 7);
    service.create_session("repeat-skew", f2_spec).unwrap();

    // 12k distinct visitors; the regions overlap on 2k of them.
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let population = planted_f0_stream(&mut rng, 32, 12_000, 12_000);
    let (eu, us) = (&population[..7_000], &population[5_000..]);
    service.ingest("visitors/eu", eu).unwrap();
    service.ingest("visitors/us", us).unwrap();
    service.ingest("repeat-skew", &population).unwrap();

    println!("sessions: {:?}", service.list_sessions());
    println!(
        "eu ≈ {:.0} distinct, us ≈ {:.0} distinct (true: 7000 / 7000)",
        service.estimate("visitors/eu").unwrap(),
        service.estimate("visitors/us").unwrap(),
    );

    // Merge: distinct-union semantics, so the overlap is not double-counted.
    service
        .merge_sessions("visitors/eu", "visitors/us")
        .unwrap();
    let global = service.estimate("visitors/eu").unwrap();
    println!("eu ∪ us ≈ {global:.0} distinct (true: 12000)");
    println!(
        "repeat-skew F2 ≈ {:.0} (distinct stream ⇒ F2 = stream length = 12000)",
        service.estimate("repeat-skew").unwrap()
    );

    // Snapshot the merged session and resurrect it elsewhere.
    let saved = service.save("visitors/eu").unwrap();
    println!("snapshot: {} bytes of JSON", saved.len());
    let mut other_deployment = SketchService::new(1);
    other_deployment.restore(&saved).unwrap();
    let restored = other_deployment.estimate("visitors/eu").unwrap();
    println!(
        "restored estimate ≈ {restored:.0} (bit-identical: {})",
        restored == global
    );
    assert_eq!(restored.to_bits(), global.to_bits());
    assert_eq!(other_deployment.save("visitors/eu").unwrap(), saved);
}
