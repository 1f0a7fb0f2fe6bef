//! Serde-based session snapshots.
//!
//! A snapshot is the *complete* session: name, specification, ledger and
//! full sketch state (hash randomness included), rendered as one JSON
//! document through the vendored serde pair (`serde_json::to_string` /
//! `serde_json::from_str`). Encoding is canonical — field order is fixed by
//! the struct definitions and numbers use Rust's shortest-roundtrip
//! rendering — so two equal sketch states always serialize to the same
//! bytes; the differential suite pins snapshot equality across batch splits
//! on exactly this property. Decoding reverses it losslessly: restore →
//! save round trips are byte-identical.
//!
//! A document's hashes are a function of its spec's seed, so decoding
//! draws the sketch from that seed once, checks every saved hash word for
//! word against the draw, and builds the saved state on the drawn hashes:
//! every restored row and ring slot shares the draw's tables, and a
//! tampered seed or hash is a typed rejection.
//!
//! Windowed sessions serialize their *whole epoch ring* — current epoch plus
//! every slot's sketch state in ring-index order — under the `window`
//! member, with the plain per-kind members left null; the ring's empty
//! template is not stored (it is the draw).

use crate::error::ServiceError;
use crate::session::{SessionLedger, SessionSpec, SketchKind};
use crate::sketch::{SessionSketch, TenantSketch};
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, SWiseHash, ToeplitzHash};
use mcf0_streaming::minimum::key_of;
use mcf0_streaming::{AmsF2, BucketingF0, EpochRing, EstimationF0, MinimumF0};
use mcf0_structured::StructuredMinimumF0;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Magic/version tag of the document format.
pub const SNAPSHOT_FORMAT: &str = "mcf0-sketch-service/v1";

#[derive(Serialize, Deserialize)]
struct BitVecSnap {
    len: usize,
    words: Vec<u64>,
}

impl BitVecSnap {
    fn of(v: &BitVec) -> Self {
        BitVecSnap {
            len: v.len(),
            words: v.words().to_vec(),
        }
    }

    fn build(&self) -> Result<BitVec, ServiceError> {
        if self.words.len() != self.len.div_ceil(64) {
            return Err(ServiceError::Snapshot(
                "bit vector word count does not match its length".into(),
            ));
        }
        // Bits past `len` would be masked off on build, so the document
        // would restore but not save back byte-identically.
        let used = self.len % 64;
        if used != 0 && self.words.last().is_some_and(|&w| w << used != 0) {
            return Err(ServiceError::Snapshot(
                "bit vector sets bits past its length".into(),
            ));
        }
        Ok(BitVec::from_words(self.len, &self.words))
    }

    fn is(&self, v: &BitVec) -> bool {
        self.len == v.len() && self.words == v.words()
    }
}

#[derive(Serialize, Deserialize)]
struct ToeplitzSnap {
    input_bits: usize,
    output_bits: usize,
    diag: BitVecSnap,
    offset: BitVecSnap,
}

impl ToeplitzSnap {
    fn of(h: &ToeplitzHash) -> Self {
        ToeplitzSnap {
            input_bits: h.input_bits(),
            output_bits: h.output_bits(),
            diag: BitVecSnap::of(h.diagonal()),
            offset: BitVecSnap::of(h.offset()),
        }
    }

    /// The drawn hash, when the saved one is exactly it.
    fn check(&self, drawn: &ToeplitzHash) -> Result<ToeplitzHash, ServiceError> {
        let same = self.input_bits == drawn.input_bits()
            && self.output_bits == drawn.output_bits()
            && self.diag.is(drawn.diagonal())
            && self.offset.is(drawn.offset());
        same.then(|| drawn.clone()).ok_or_else(draw_mismatch)
    }
}

#[derive(Serialize, Deserialize)]
struct SWiseSnap {
    width: u32,
    coeffs: Vec<u64>,
}

impl SWiseSnap {
    fn of(h: &SWiseHash) -> Self {
        SWiseSnap {
            width: h.width(),
            coeffs: h.coeffs().to_vec(),
        }
    }

    /// The drawn hash, when the saved one is exactly it.
    fn check(&self, drawn: &SWiseHash) -> Result<SWiseHash, ServiceError> {
        let same = self.width == drawn.width() && self.coeffs == drawn.coeffs();
        same.then(|| drawn.clone()).ok_or_else(draw_mismatch)
    }
}

#[derive(Serialize, Deserialize)]
struct MinimumRowSnap {
    hash: ToeplitzSnap,
    smallest: Vec<BitVecSnap>,
}

#[derive(Serialize, Deserialize)]
struct BucketingRowSnap {
    hash: ToeplitzSnap,
    level: usize,
    cell: Vec<u64>,
}

#[derive(Serialize, Deserialize)]
struct EstimationRowSnap {
    hashes: Vec<SWiseSnap>,
    cells: Vec<u32>,
}

#[derive(Serialize, Deserialize)]
struct AmsCellSnap {
    hash: SWiseSnap,
    accumulator: i64,
}

#[derive(Serialize, Deserialize)]
struct AmsSnap {
    rows: usize,
    columns: usize,
    /// Row-major cells, `rows × columns` of them.
    cells: Vec<AmsCellSnap>,
    items_processed: u64,
}

#[derive(Serialize, Deserialize)]
struct StructuredSnap {
    rows: Vec<MinimumRowSnap>,
    items_processed: u64,
}

#[derive(Serialize, Deserialize)]
struct SpecSnap {
    kind: String,
    universe_bits: usize,
    epsilon: f64,
    delta: f64,
    thresh: usize,
    rows: usize,
    columns: usize,
    seed: u64,
    window: Option<usize>,
}

/// One sketch's state. Exactly one of the per-kind members is non-null,
/// selected by `spec.kind` (the vendored derive supports structs only, so
/// the sketch variants are encoded as optional members rather than an
/// enum). This is the whole sketch of a plain session, and one ring slot of
/// a windowed one.
#[derive(Serialize, Deserialize)]
struct SketchSnap {
    minimum: Option<Vec<MinimumRowSnap>>,
    bucketing: Option<Vec<BucketingRowSnap>>,
    estimation: Option<Vec<EstimationRowSnap>>,
    ams: Option<AmsSnap>,
    structured_minimum: Option<StructuredSnap>,
}

/// A windowed session's complete ring state.
#[derive(Serialize, Deserialize)]
struct WindowSnap {
    /// Current epoch.
    epoch: u64,
    /// Every ring slot's sketch, in **ring-index** order (slot `i` holds
    /// epoch `e` where `e % K == i`), so the encoding is canonical and
    /// restore → save round trips stay byte-identical.
    slots: Vec<SketchSnap>,
}

/// The document. Plain sessions keep their state in the top-level per-kind
/// members (one non-null, selected by `spec.kind`) with `window` null;
/// windowed sessions leave the top-level members null and carry the ring
/// under `window`.
#[derive(Serialize, Deserialize)]
struct SessionDoc {
    format: String,
    name: String,
    spec: SpecSnap,
    ledger: SessionLedger,
    minimum: Option<Vec<MinimumRowSnap>>,
    bucketing: Option<Vec<BucketingRowSnap>>,
    estimation: Option<Vec<EstimationRowSnap>>,
    ams: Option<AmsSnap>,
    structured_minimum: Option<StructuredSnap>,
    window: Option<WindowSnap>,
}

/// Renders a Minimum sketch's rows: each reservoir key as its `3n`-bit
/// value. Plain and structured Minimum sessions share this codec.
fn minimum_rows(s: &MinimumF0) -> Vec<MinimumRowSnap> {
    (0..s.num_rows())
        .map(|i| {
            let (hash, smallest) = s.row_parts(i);
            let len = hash.output_bits();
            MinimumRowSnap {
                hash: ToeplitzSnap::of(hash),
                smallest: smallest
                    .iter()
                    .map(|key| BitVecSnap {
                        len,
                        words: key[..len.div_ceil(64)].to_vec(),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Rebuilds a Minimum sketch from its rows on the drawn one's hashes,
/// validating their shape against the specification; the inverse of
/// [`minimum_rows`].
fn build_minimum(
    rows: &[MinimumRowSnap],
    spec: &SessionSpec,
    drawn: &MinimumF0,
) -> Result<MinimumF0, ServiceError> {
    check_rows(rows.len(), spec.rows)?;
    let mut parts = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let hash = row.hash.check(drawn.row_parts(i).0)?;
        let mut smallest = Vec::with_capacity(row.smallest.len());
        for v in &row.smallest {
            if v.len != 3 * spec.universe_bits {
                return Err(ServiceError::Snapshot("reservoir value width".into()));
            }
            smallest.push(key_of(&v.build()?));
        }
        // Canonical documents list each reservoir strictly ascending, as the
        // sketch holds it; anything else would restore but not save back
        // byte-identically.
        if smallest.len() > spec.thresh || !smallest.windows(2).all(|w| w[0] < w[1]) {
            return Err(ServiceError::Snapshot("malformed reservoir".into()));
        }
        parts.push((hash, smallest));
    }
    Ok(MinimumF0::from_parts(
        spec.universe_bits,
        spec.thresh,
        parts,
    ))
}

/// Renders one sketch's state to its per-kind snap members.
fn snap_sketch(sketch: &TenantSketch) -> SketchSnap {
    let mut snap = SketchSnap {
        minimum: None,
        bucketing: None,
        estimation: None,
        ams: None,
        structured_minimum: None,
    };
    match sketch {
        TenantSketch::Minimum(s) => snap.minimum = Some(minimum_rows(s)),
        TenantSketch::Bucketing(s) => {
            snap.bucketing = Some(
                (0..s.num_rows())
                    .map(|i| {
                        let (hash, level, cell) = s.row_parts(i);
                        BucketingRowSnap {
                            hash: ToeplitzSnap::of(hash),
                            level,
                            cell: cell.iter().copied().collect(),
                        }
                    })
                    .collect(),
            );
        }
        TenantSketch::Estimation(s) => {
            snap.estimation = Some(
                (0..s.num_rows())
                    .map(|i| {
                        let (hashes, cells) = s.row_parts(i);
                        EstimationRowSnap {
                            hashes: hashes.iter().map(SWiseSnap::of).collect(),
                            cells: cells.to_vec(),
                        }
                    })
                    .collect(),
            );
        }
        TenantSketch::Ams(s) => {
            let (rows, columns) = (s.num_rows(), s.num_columns());
            snap.ams = Some(AmsSnap {
                rows,
                columns,
                cells: (0..rows)
                    .flat_map(|i| (0..columns).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        let (hash, accumulator) = s.cell_parts(i, j);
                        AmsCellSnap {
                            hash: SWiseSnap::of(hash),
                            accumulator,
                        }
                    })
                    .collect(),
                items_processed: s.items_processed(),
            });
        }
        TenantSketch::StructuredMinimum(s) => {
            snap.structured_minimum = Some(StructuredSnap {
                rows: minimum_rows(s.minimum()),
                items_processed: s.items_processed(),
            });
        }
    }
    snap
}

/// Renders a session to its canonical JSON document.
pub fn encode(
    name: &str,
    spec: &SessionSpec,
    ledger: &SessionLedger,
    sketch: &SessionSketch,
) -> String {
    let mut doc = SessionDoc {
        format: SNAPSHOT_FORMAT.to_string(),
        name: name.to_string(),
        spec: SpecSnap {
            kind: spec.kind.name().to_string(),
            universe_bits: spec.universe_bits,
            epsilon: spec.epsilon,
            delta: spec.delta,
            thresh: spec.thresh,
            rows: spec.rows,
            columns: spec.columns,
            seed: spec.seed,
            window: spec.window,
        },
        ledger: *ledger,
        minimum: None,
        bucketing: None,
        estimation: None,
        ams: None,
        structured_minimum: None,
        window: None,
    };
    match sketch {
        SessionSketch::Plain(s) => {
            let snap = snap_sketch(s);
            doc.minimum = snap.minimum;
            doc.bucketing = snap.bucketing;
            doc.estimation = snap.estimation;
            doc.ams = snap.ams;
            doc.structured_minimum = snap.structured_minimum;
        }
        SessionSketch::Windowed(ring) => {
            doc.window = Some(WindowSnap {
                epoch: ring.epoch(),
                slots: ring.slots().iter().map(snap_sketch).collect(),
            });
        }
    }
    // The vendored serde's `serialize_json` writes straight into a String
    // and cannot fail — encode stays infallible without an `expect` on the
    // `serde_json::to_string` Result wrapper.
    let mut out = String::new();
    doc.serialize_json(&mut out);
    out
}

/// Rebuilds one sketch's state from its snap members on `drawn`'s hashes:
/// its shape is validated against the specification, and every saved hash
/// must be exactly the drawn one.
fn build_sketch(
    snap: &SketchSnap,
    spec: &SessionSpec,
    drawn: &TenantSketch,
) -> Result<TenantSketch, ServiceError> {
    Ok(match drawn {
        TenantSketch::Minimum(drawn) => {
            let rows = snap
                .minimum
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing minimum state".into()))?;
            TenantSketch::Minimum(build_minimum(rows, spec, drawn)?)
        }
        TenantSketch::Bucketing(drawn) => {
            let rows = snap
                .bucketing
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing bucketing state".into()))?;
            check_rows(rows.len(), spec.rows)?;
            let mut parts = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let hash = row.hash.check(drawn.row_parts(i).0)?;
                if row.level > spec.universe_bits {
                    return Err(ServiceError::Snapshot("level beyond the hash range".into()));
                }
                let cell: BTreeSet<u64> = row.cell.iter().copied().collect();
                if cell.len() != row.cell.len()
                    || (spec.universe_bits < 64
                        && cell.iter().any(|&x| x >= (1u64 << spec.universe_bits)))
                {
                    return Err(ServiceError::Snapshot("malformed cell".into()));
                }
                parts.push((hash, row.level, cell));
            }
            TenantSketch::Bucketing(BucketingF0::from_parts(
                spec.universe_bits,
                spec.thresh,
                parts,
            ))
        }
        TenantSketch::Estimation(drawn) => {
            let rows = snap
                .estimation
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing estimation state".into()))?;
            check_rows(rows.len(), spec.rows)?;
            let mut parts = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                if row.hashes.len() != spec.thresh || row.cells.len() != spec.thresh {
                    return Err(ServiceError::Snapshot("row width is not Thresh".into()));
                }
                let hashes = (row.hashes.iter().zip(drawn.row_parts(i).0))
                    .map(|(h, d)| h.check(d))
                    .collect::<Result<Vec<_>, _>>()?;
                if row.cells.iter().any(|&m| m as usize > spec.universe_bits) {
                    return Err(ServiceError::Snapshot("cell beyond the hash width".into()));
                }
                parts.push((hashes, row.cells.clone()));
            }
            TenantSketch::Estimation(EstimationF0::from_parts(
                spec.universe_bits,
                spec.thresh,
                parts,
            ))
        }
        TenantSketch::Ams(drawn) => {
            let ams = snap
                .ams
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing ams state".into()))?;
            if ams.rows != spec.rows
                || ams.columns != spec.columns
                || ams.columns == 0
                || ams.cells.len() != ams.rows * ams.columns
            {
                return Err(ServiceError::Snapshot("malformed ams shape".into()));
            }
            let mut grid = Vec::with_capacity(ams.rows);
            // `cells.len() == rows * columns` was checked above, so chunking
            // by `columns` yields exactly `rows` full rows.
            for (i, chunk) in ams.cells.chunks(ams.columns).enumerate() {
                let mut row = Vec::with_capacity(ams.columns);
                for (j, cell) in chunk.iter().enumerate() {
                    row.push((cell.hash.check(drawn.cell_parts(i, j).0)?, cell.accumulator));
                }
                grid.push(row);
            }
            TenantSketch::Ams(AmsF2::from_parts(
                spec.universe_bits,
                grid,
                ams.items_processed,
            ))
        }
        TenantSketch::StructuredMinimum(drawn) => {
            let structured = snap
                .structured_minimum
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing structured state".into()))?;
            TenantSketch::StructuredMinimum(StructuredMinimumF0::from_parts(
                build_minimum(&structured.rows, spec, drawn.minimum())?,
                structured.items_processed,
            ))
        }
    })
}

/// Decodes a document into `(name, spec, ledger, state, draw)`: `draw` is
/// the sketch drawn from the spec's seed, still empty and at the saved
/// epoch, and `state` is the saved sketch built on its hashes.
pub fn decode(
    json: &str,
) -> Result<
    (
        String,
        SessionSpec,
        SessionLedger,
        SessionSketch,
        SessionSketch,
    ),
    ServiceError,
> {
    let doc: SessionDoc =
        serde_json::from_str(json).map_err(|e| ServiceError::Snapshot(e.to_string()))?;
    if doc.format != SNAPSHOT_FORMAT {
        return Err(ServiceError::Snapshot(format!(
            "unsupported format tag `{}`",
            doc.format
        )));
    }
    let kind = SketchKind::parse(&doc.spec.kind).ok_or_else(|| {
        ServiceError::Snapshot(format!("unknown sketch kind `{}`", doc.spec.kind))
    })?;
    let spec = SessionSpec {
        kind,
        universe_bits: doc.spec.universe_bits,
        epsilon: doc.spec.epsilon,
        delta: doc.spec.delta,
        thresh: doc.spec.thresh,
        rows: doc.spec.rows,
        columns: doc.spec.columns,
        seed: doc.spec.seed,
        window: doc.spec.window,
    };
    // A snapshot document is untrusted input like any other frame: a
    // tampered spec must be a typed rejection before anything is drawn or
    // any ring slot or row is decoded.
    spec.validate(&doc.name)
        .map_err(|e| ServiceError::Snapshot(e.to_string()))?;
    let plain = SketchSnap {
        minimum: doc.minimum,
        bucketing: doc.bucketing,
        estimation: doc.estimation,
        ams: doc.ams,
        structured_minimum: doc.structured_minimum,
    };
    let (epoch, snaps) = match (spec.window, &doc.window) {
        (None, Some(_)) => {
            return Err(ServiceError::Snapshot(
                "ring state on an unwindowed specification".into(),
            ))
        }
        (None, None) => (0, std::slice::from_ref(&plain)),
        (Some(window), win) => {
            if plain.minimum.is_some()
                || plain.bucketing.is_some()
                || plain.estimation.is_some()
                || plain.ams.is_some()
                || plain.structured_minimum.is_some()
            {
                return Err(ServiceError::Snapshot(
                    "plain sketch state on a windowed specification".into(),
                ));
            }
            let win = win
                .as_ref()
                .ok_or_else(|| ServiceError::Snapshot("missing ring state".into()))?;
            if win.slots.len() != window {
                return Err(ServiceError::Snapshot(format!(
                    "ring of {} slots does not match the {window}-epoch window",
                    win.slots.len()
                )));
            }
            (win.epoch, &win.slots[..])
        }
    };
    let mut draw = SessionSketch::new(&spec);
    if epoch > 0 {
        draw.advance(&doc.name, epoch);
    }
    let state = match &draw {
        SessionSketch::Plain(drawn) => SessionSketch::Plain(build_sketch(&snaps[0], &spec, drawn)?),
        SessionSketch::Windowed(ring) => {
            let drawn = ring.template();
            let slots = (snaps.iter().map(|slot| build_sketch(slot, &spec, drawn)))
                .collect::<Result<_, _>>()?;
            SessionSketch::Windowed(EpochRing::from_parts(drawn.clone(), epoch, slots))
        }
    };
    Ok((doc.name, spec, doc.ledger, state, draw))
}

fn check_rows(got: usize, expected: usize) -> Result<(), ServiceError> {
    if got == expected {
        Ok(())
    } else {
        Err(ServiceError::Snapshot(format!(
            "row count {got} does not match the specification's {expected}"
        )))
    }
}

fn draw_mismatch() -> ServiceError {
    ServiceError::Snapshot("hash draws do not match the specification's seed".into())
}
