//! The replayable command surface.
//!
//! Every public operation of the service has a command form, so whole
//! workloads can be expressed as traces and replayed — against the
//! service, or against the unpartitioned
//! [`crate::reference::ReferenceService`] — with outputs compared
//! bit-for-bit (the differential test harness).

use crate::session::{member, SessionSpec};
use mcf0_formula::DnfFormula;
use serde::{DeError, Deserialize, Serialize, Value};

/// One service operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceCommand {
    /// Register a session.
    Create {
        /// Session name.
        name: String,
        /// Draw specification.
        spec: SessionSpec,
    },
    /// Feed a batch of `u64` stream items.
    Ingest {
        /// Session name.
        name: String,
        /// The batch, in arrival order (duplicates allowed).
        items: Vec<u64>,
    },
    /// Feed a batch of structured (DNF) set items.
    IngestStructured {
        /// Session name.
        name: String,
        /// The batch, in arrival order.
        sets: Vec<DnfFormula>,
    },
    /// Fold `src`'s sketch into `dst` (distinct-union semantics; both
    /// sessions keep existing, `dst` now covers both streams).
    Merge {
        /// Destination session.
        dst: String,
        /// Source session (unchanged).
        src: String,
    },
    /// Move a windowed session to a strictly larger epoch, retiring the
    /// ring slots that fall out of the window. Mutates state (the WAL logs
    /// it); epochs are caller-supplied — the service never reads a clock.
    Advance {
        /// Session name.
        name: String,
        /// The new epoch (must exceed the session's current epoch).
        epoch: u64,
    },
    /// Query the current estimate.
    Estimate {
        /// Session name.
        name: String,
    },
    /// Query the sliding-window estimate of a windowed session (the fold of
    /// its live epoch slots). `NotWindowed` on classic sessions.
    EstimateWindow {
        /// Session name.
        name: String,
    },
    /// Query the inclusion–exclusion intersection-size estimate of two
    /// same-spec sessions: est(A) + est(B) − est(A ∪ B), the union folded on
    /// a read-only scratch merge. Neither session is mutated.
    IntersectionEstimate {
        /// First session.
        a: String,
        /// Second session.
        b: String,
    },
    /// Query the Jaccard-similarity estimate of two same-spec sessions:
    /// the intersection estimate over est(A ∪ B), clamped into [0, 1].
    /// Read-only, like [`ServiceCommand::IntersectionEstimate`].
    JaccardEstimate {
        /// First session.
        a: String,
        /// Second session.
        b: String,
    },
    /// Query the Estimation strategy's (ε, δ) estimate for a rough `r`.
    EstimateWithR {
        /// Session name.
        name: String,
        /// Rough estimate parameter (`2·F0 ≤ 2^r ≤ 50·F0` for the
        /// guarantee).
        r: u32,
    },
    /// Query the sketch size.
    SpaceBits {
        /// Session name.
        name: String,
    },
    /// Serialize the session to its canonical snapshot document.
    Save {
        /// Session name.
        name: String,
    },
    /// Forget the session.
    Drop {
        /// Session name.
        name: String,
    },
}

impl ServiceCommand {
    /// Whether the command can change service state — exactly the commands
    /// the write-ahead log records (queries replay to the same answers from
    /// the same state, so logging them would only bloat the log).
    pub fn mutates(&self) -> bool {
        matches!(
            self,
            ServiceCommand::Create { .. }
                | ServiceCommand::Ingest { .. }
                | ServiceCommand::IngestStructured { .. }
                | ServiceCommand::Merge { .. }
                | ServiceCommand::Advance { .. }
                | ServiceCommand::Drop { .. }
        )
    }

    /// The session name(s) the command addresses (destination first).
    pub fn sessions(&self) -> Vec<&str> {
        match self {
            ServiceCommand::Create { name, .. }
            | ServiceCommand::Ingest { name, .. }
            | ServiceCommand::IngestStructured { name, .. }
            | ServiceCommand::Advance { name, .. }
            | ServiceCommand::Estimate { name }
            | ServiceCommand::EstimateWindow { name }
            | ServiceCommand::EstimateWithR { name, .. }
            | ServiceCommand::SpaceBits { name }
            | ServiceCommand::Save { name }
            | ServiceCommand::Drop { name } => vec![name],
            ServiceCommand::Merge { dst, src } => vec![dst, src],
            ServiceCommand::IntersectionEstimate { a, b }
            | ServiceCommand::JaccardEstimate { a, b } => vec![a, b],
        }
    }
}

// The write-ahead log's record serde: one tagged JSON object per command
// (`{"op":"ingest","name":…,"items":[…]}`). The vendored derive handles
// structs only, so the enum is spelled out by hand. Structured items ride
// as [`DnfFormula::to_text`] strings — the text round trip is exact (terms
// are kept normalized by `Term::new`), which the durability suite pins via
// whole-trace encode/decode round trips.
impl Serialize for ServiceCommand {
    fn serialize_json(&self, out: &mut String) {
        let header = |out: &mut String, op: &str, field: &str, value: &str| {
            out.push_str("{\"op\":");
            serde::write_json_string(op, out);
            out.push(',');
            serde::write_json_string(field, out);
            out.push(':');
            serde::write_json_string(value, out);
        };
        match self {
            ServiceCommand::Create { name, spec } => {
                header(out, "create", "name", name);
                out.push_str(",\"spec\":");
                spec.serialize_json(out);
            }
            ServiceCommand::Ingest { name, items } => {
                header(out, "ingest", "name", name);
                out.push_str(",\"items\":");
                items.serialize_json(out);
            }
            ServiceCommand::IngestStructured { name, sets } => {
                header(out, "ingest_structured", "name", name);
                out.push_str(",\"sets\":[");
                for (i, set) in sets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(&set.to_text(), out);
                }
                out.push(']');
            }
            ServiceCommand::Merge { dst, src } => {
                header(out, "merge", "dst", dst);
                out.push_str(",\"src\":");
                serde::write_json_string(src, out);
            }
            ServiceCommand::Advance { name, epoch } => {
                header(out, "advance", "name", name);
                out.push_str(",\"epoch\":");
                epoch.serialize_json(out);
            }
            ServiceCommand::Estimate { name } => header(out, "estimate", "name", name),
            ServiceCommand::EstimateWindow { name } => header(out, "estimate_window", "name", name),
            ServiceCommand::IntersectionEstimate { a, b } => {
                header(out, "intersection_estimate", "a", a);
                out.push_str(",\"b\":");
                serde::write_json_string(b, out);
            }
            ServiceCommand::JaccardEstimate { a, b } => {
                header(out, "jaccard_estimate", "a", a);
                out.push_str(",\"b\":");
                serde::write_json_string(b, out);
            }
            ServiceCommand::EstimateWithR { name, r } => {
                header(out, "estimate_with_r", "name", name);
                out.push_str(",\"r\":");
                r.serialize_json(out);
            }
            ServiceCommand::SpaceBits { name } => header(out, "space_bits", "name", name),
            ServiceCommand::Save { name } => header(out, "save", "name", name),
            ServiceCommand::Drop { name } => header(out, "drop", "name", name),
        }
        out.push('}');
    }
}

impl Deserialize for ServiceCommand {
    fn deserialize_json(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "ServiceCommand";
        let op = String::deserialize_json(member(v, TY, "op")?)?;
        let name = |field: &str| String::deserialize_json(member(v, TY, field)?);
        Ok(match op.as_str() {
            "create" => ServiceCommand::Create {
                name: name("name")?,
                spec: SessionSpec::deserialize_json(member(v, TY, "spec")?)?,
            },
            "ingest" => ServiceCommand::Ingest {
                name: name("name")?,
                items: Vec::<u64>::deserialize_json(member(v, TY, "items")?)?,
            },
            "ingest_structured" => {
                let texts = Vec::<String>::deserialize_json(member(v, TY, "sets")?)?;
                let sets = texts
                    .iter()
                    .map(|t| {
                        DnfFormula::parse_text(t)
                            .map_err(|e| DeError::new(format!("malformed DNF item: {e}")))
                    })
                    .collect::<Result<_, _>>()?;
                ServiceCommand::IngestStructured {
                    name: name("name")?,
                    sets,
                }
            }
            "merge" => ServiceCommand::Merge {
                dst: name("dst")?,
                src: name("src")?,
            },
            "advance" => ServiceCommand::Advance {
                name: name("name")?,
                epoch: u64::deserialize_json(member(v, TY, "epoch")?)?,
            },
            "estimate" => ServiceCommand::Estimate {
                name: name("name")?,
            },
            "estimate_window" => ServiceCommand::EstimateWindow {
                name: name("name")?,
            },
            "intersection_estimate" => ServiceCommand::IntersectionEstimate {
                a: name("a")?,
                b: name("b")?,
            },
            "jaccard_estimate" => ServiceCommand::JaccardEstimate {
                a: name("a")?,
                b: name("b")?,
            },
            "estimate_with_r" => ServiceCommand::EstimateWithR {
                name: name("name")?,
                r: u32::deserialize_json(member(v, TY, "r")?)?,
            },
            "space_bits" => ServiceCommand::SpaceBits {
                name: name("name")?,
            },
            "save" => ServiceCommand::Save {
                name: name("name")?,
            },
            "drop" => ServiceCommand::Drop {
                name: name("name")?,
            },
            other => return Err(DeError::new(format!("unknown command op `{other}`"))),
        })
    }
}

impl ServiceCommand {
    /// Decodes one log record payload: the typed [`Scan`] for a canonical
    /// ingest record, the generic `serde_json` path for everything else.
    pub(crate) fn from_log_record(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let mut scan = Scan::new(text);
        if let Some(command) = scan.ingest().filter(|_| scan.finish()) {
            return Ok(command);
        }
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
thread_local! {
    /// Lines [`Scan::finish`] accepted on this thread, so a test fails if
    /// the hot callers stop reaching the scanner.
    pub(crate) static SCANNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The typed fast path for the one hot shape, the compact canonical ingest
/// record `{"op":"ingest","name":"…","items":[…]}` that
/// [`ServiceCommand`]'s `Serialize` writes. It parses `items` straight into
/// `Vec<u64>`, with no `Value` tree and no `String` per number. It accepts a
/// strict subset of what `serde_json::from_str` accepts, and decodes it to
/// the same value: any whitespace, other key order, extra or duplicate
/// key, `\` escape, non-canonical number (leading zero, `-`, `.`, `e`),
/// `u64` overflow or trailing byte makes a step return `None`, and the
/// caller falls back to the generic parser, whose replies and error
/// messages are the contract.
pub(crate) struct Scan<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Scan { text, pos: 0 }
    }

    /// Consumes exactly `lit`.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos + lit.len();
        let found = self.text.as_bytes().get(self.pos..end)? == lit.as_bytes();
        found.then(|| self.pos = end)
    }

    /// A string literal without escapes. The text is valid UTF-8 and both
    /// ends are ASCII, so the slice between them is too.
    pub(crate) fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        let s = &self.text[start..self.pos];
        self.lit("\"")?;
        Some(s)
    }

    /// A canonical `u64`: `0`, or digits without a leading zero, in range.
    pub(crate) fn u64(&mut self) -> Option<u64> {
        let rest = &self.text.as_bytes()[self.pos..];
        let (mut n, mut len) = (0u64, 0);
        for d in rest
            .iter()
            .map(|b| b.wrapping_sub(b'0'))
            .take_while(|&d| d < 10)
        {
            n = n.checked_mul(10)?.checked_add(u64::from(d))?;
            len += 1;
        }
        if len == 0 || (len > 1 && rest[0] == b'0') {
            return None;
        }
        self.pos += len;
        Some(n)
    }

    /// The canonical ingest record, up to its closing brace.
    pub(crate) fn ingest(&mut self) -> Option<ServiceCommand> {
        self.lit(r#"{"op":"ingest","name":"#)?;
        let name = self.string()?.to_string();
        self.lit(r#","items":["#)?;
        let mut items = Vec::new();
        if self.lit("]").is_none() {
            loop {
                items.push(self.u64()?);
                if self.lit(",").is_none() {
                    self.lit("]")?;
                    break;
                }
            }
        }
        self.lit("}")?;
        Some(ServiceCommand::Ingest { name, items })
    }

    /// Whether the whole text was consumed.
    pub(crate) fn finish(&self) -> bool {
        let done = self.pos == self.text.len();
        #[cfg(test)]
        SCANNED.with(|n| n.set(n.get() + usize::from(done)));
        done
    }
}

/// A command's successful result. `f64` payloads compare bit-for-bit under
/// `PartialEq` in the workloads the service runs (no NaNs), which is what
/// the differential suite relies on.
#[derive(Clone, Debug, PartialEq)]
pub enum CommandReply {
    /// The command mutated state and returned nothing.
    Done,
    /// An estimate.
    Estimate(f64),
    /// An `estimate_with_r` answer (`None`: wrong kind or degenerate `r`).
    MaybeEstimate(Option<f64>),
    /// A sketch size in bits.
    SpaceBits(usize),
    /// A snapshot document.
    Snapshot(String),
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unit tests may unwrap
mod tests {
    use super::*;
    use crate::net::proto::{decode_request, encode_line, ErrorCode, Request, WireError};
    use mcf0_hashing::Xoshiro256StarStar;
    use proptest::prelude::*;

    /// The generic request decoder alone: what `decode_request` was before
    /// the scanner, and what it must still return for every line.
    fn generic_request(line: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(line).map_err(|_| {
            WireError::protocol(ErrorCode::BadFrame, "request line is not valid UTF-8")
        })?;
        serde_json::from_str::<Request>(text).map_err(|e| {
            WireError::protocol(ErrorCode::BadRequest, format!("malformed request: {e}"))
        })
    }

    /// The generic log-record decoder alone, as log replay ran it before.
    fn generic_record(payload: &[u8]) -> Result<ServiceCommand, String> {
        std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    }

    /// `random_trace` as (log payload, request line) pairs. The generator
    /// lives in `mcf0-bench`, which links its own copy of this crate, so the
    /// commands cross over as JSON text.
    fn trace_lines(seed: u64, universe_bits: usize, commands: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        mcf0_bench::service_support::random_trace(seed, universe_bits, commands)
            .iter()
            .enumerate()
            .map(|(i, command)| {
                let payload = serde_json::to_string(command).unwrap();
                let request = Request {
                    id: seed.wrapping_add(i as u64),
                    token: format!("tok-{i}"),
                    command: serde_json::from_str(&payload).unwrap(),
                };
                let line = encode_line(&request).trim_end().as_bytes().to_vec();
                (payload.into_bytes(), line)
            })
            .collect()
    }

    /// Single-byte edits of `line` at every offset: truncate there, delete
    /// the byte, flip one of its bits, insert a byte from a set aimed at
    /// the scanner's edges.
    fn mutations(line: &[u8], rng: &mut Xoshiro256StarStar) -> Vec<Vec<u8>> {
        const INSERTS: &[u8] = b"00019-.eE+ \t\"\\,]}[{:x\xC3\xFF";
        let mut out = Vec::new();
        for at in 0..=line.len() {
            out.push(line[..at].to_vec());
            let mut inserted = line.to_vec();
            inserted.insert(at, INSERTS[rng.next_u64() as usize % INSERTS.len()]);
            out.push(inserted);
            if at < line.len() {
                let mut deleted = line.to_vec();
                deleted.remove(at);
                out.push(deleted);
                let mut flipped = line.to_vec();
                flipped[at] ^= 1 << (rng.next_u64() % 8);
                out.push(flipped);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Fast path == generic path, value or error message, on every
        /// trace line and every single-byte edit of it, on the wire and in
        /// the log. Odd seeds use 64-bit items, so edits reach `u64`
        /// overflow.
        #[test]
        fn the_scanner_agrees_with_the_generic_parser(seed in any::<u64>()) {
            let bits = if seed.is_multiple_of(2) { 8 } else { 64 };
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            for (payload, line) in trace_lines(seed, bits, 16) {
                for record in mutations(&payload, &mut rng) {
                    prop_assert_eq!(ServiceCommand::from_log_record(&record), generic_record(&record));
                }
                for request in mutations(&line, &mut rng) {
                    prop_assert_eq!(decode_request(&request), generic_request(&request));
                }
            }
        }
    }

    /// Fails if a hot caller stops reaching the scanner, or the scanner
    /// stops accepting: every canonical ingest line is scanned on both
    /// entry points, and no other line is.
    #[test]
    fn canonical_ingest_lines_take_the_fast_path() {
        let scanned = || SCANNED.with(|n| n.get());
        let mut ingests = 0;
        for (payload, line) in trace_lines(7, 16, 200) {
            let ingest = payload.starts_with(br#"{"op":"ingest","#);
            ingests += usize::from(ingest);
            let before = scanned();
            ServiceCommand::from_log_record(&payload).unwrap();
            decode_request(&line).unwrap();
            let want = if ingest { 2 } else { 0 };
            assert_eq!(
                scanned() - before,
                want,
                "{}",
                String::from_utf8_lossy(&line)
            );
        }
        assert!(ingests > 20, "the trace has only {ingests} ingest lines");
    }
}
