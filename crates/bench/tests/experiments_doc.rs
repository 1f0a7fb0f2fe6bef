//! EXPERIMENTS.md against the harness that generates it: the E1–E17 table
//! rows the `experiments` binary prints must equal the committed document's,
//! cell for cell. Wall-clock metrics (`seconds`, `ms_per_item`) move with the
//! hardware and are masked; the `(N rows, Xs)` footers and the prose are not
//! table rows and are not compared. E18 has its own gate
//! (`tests/contract.rs`) and takes about a minute, so it is left out.
//!
//! Run with `cargo test --release -p mcf0-bench --test experiments_doc --
//! --ignored` (about 15 s in release).

use std::process::Command;

/// Metrics whose value is a wall-clock measurement.
const TIMINGS: &[&str] = &["seconds", "ms_per_item"];

/// The E1–E17 table rows of `text`, timing values masked.
fn rows(text: &str) -> Vec<String> {
    text.lines()
        .filter(|line| {
            let id = line.split('|').nth(1).map(str::trim).unwrap_or("");
            id.strip_prefix('E')
                .and_then(|number| number.parse::<u32>().ok())
                .is_some_and(|number| (1..=17).contains(&number))
        })
        .map(|line| {
            let cells: Vec<String> = line
                .split('|')
                .map(|cell| match cell.trim().split_once(" = ") {
                    Some((metric, _)) if TIMINGS.contains(&metric) => format!(" {metric} = … "),
                    _ => cell.to_string(),
                })
                .collect();
            cells.join("|")
        })
        .collect()
}

#[test]
#[ignore = "runs the E1–E17 harness; about 15 s in release"]
fn experiments_md_matches_the_harness_for_e1_to_e17() {
    let ids: Vec<String> = (1..=17).map(|i| format!("e{i}")).collect();
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(&ids)
        .output()
        .expect("the experiments binary runs");
    assert!(
        output.status.success(),
        "experiments exited {}",
        output.status
    );
    let printed = rows(&String::from_utf8(output.stdout).expect("UTF-8 output"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let documented = rows(&std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable"));
    for (printed, documented) in printed.iter().zip(&documented) {
        assert_eq!(printed, documented, "EXPERIMENTS.md is stale");
    }
    assert_eq!(printed.len(), documented.len(), "row counts differ");
}
