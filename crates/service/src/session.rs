//! Session specifications and command-accounting ledgers.

use crate::error::ServiceError;
use crate::service::MAX_WINDOW_EPOCHS;
use mcf0_formula::DnfFormula;
use serde::{DeError, Deserialize, Serialize, Value};

/// Which sketch a session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchKind {
    /// KMV ([`mcf0_streaming::MinimumF0`]).
    Minimum,
    /// Gibbons–Tirthapura adaptive sampling ([`mcf0_streaming::BucketingF0`]).
    Bucketing,
    /// Trailing-zero sketches ([`mcf0_streaming::EstimationF0`]).
    Estimation,
    /// AMS F2 ([`mcf0_streaming::AmsF2`]) — the higher-moment tenant type.
    Ams,
    /// Minimum strategy over structured set items
    /// ([`mcf0_structured::StructuredMinimumF0`], DNF items).
    StructuredMinimum,
}

impl SketchKind {
    /// Stable name used by snapshots and displays.
    pub fn name(&self) -> &'static str {
        match self {
            SketchKind::Minimum => "minimum",
            SketchKind::Bucketing => "bucketing",
            SketchKind::Estimation => "estimation",
            SketchKind::Ams => "ams",
            SketchKind::StructuredMinimum => "structured_minimum",
        }
    }

    /// Inverse of [`SketchKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "minimum" => SketchKind::Minimum,
            "bucketing" => SketchKind::Bucketing,
            "estimation" => SketchKind::Estimation,
            "ams" => SketchKind::Ams,
            "structured_minimum" => SketchKind::StructuredMinimum,
            _ => return None,
        })
    }
}

/// Everything that determines a session's sketch *draw*: two sessions with
/// equal specifications hold identical hash functions, which is exactly the
/// precondition for the service's pairwise merge (and for its partition
/// itself — both partials of a session rederive the same draw from `seed`).
///
/// A sketch can be drawn only from a spec that passes
/// [`SessionSpec::validate`]: `universe_bits` in `1..=64`, `rows ≥ 1`,
/// `thresh ≥ 1` (AMS, which has no `Thresh`: `columns ≥ 1`), ε and δ in
/// the open interval (0, 1), and a `window`, if any, in
/// `1..=`[`MAX_WINDOW_EPOCHS`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionSpec {
    /// Sketch strategy.
    pub kind: SketchKind,
    /// Universe width `n` in bits.
    pub universe_bits: usize,
    /// Relative error target ε (recorded; `thresh`/`rows` govern the shape).
    pub epsilon: f64,
    /// Failure probability target δ (recorded).
    pub delta: f64,
    /// Bucket / reservoir size `Thresh` (AMS: unused).
    pub thresh: usize,
    /// Median repetitions `t` (AMS: median rows).
    pub rows: usize,
    /// Averaged columns per row (AMS only; 0 otherwise).
    pub columns: usize,
    /// Seed of the session's private hash-drawing RNG.
    pub seed: u64,
    /// Sliding-window configuration: `Some(K)` makes the session an
    /// epoch-ring of `K` identically-drawn sub-sketches (see
    /// [`mcf0_streaming::EpochRing`]); `None` is the classic
    /// everything-ever sketch. Part of the spec — and therefore of the
    /// merge-compatibility check — because two sessions only compose
    /// meaningfully when their window semantics agree.
    pub window: Option<usize>,
}

impl SessionSpec {
    /// A specification with explicit shape parameters and the workspace's
    /// standard loose accuracy targets (ε = 0.8, δ = 0.2) recorded.
    pub fn new(
        kind: SketchKind,
        universe_bits: usize,
        thresh: usize,
        rows: usize,
        seed: u64,
    ) -> Self {
        SessionSpec {
            kind,
            universe_bits,
            epsilon: 0.8,
            delta: 0.2,
            thresh,
            rows,
            columns: if kind == SketchKind::Ams { thresh } else { 0 },
            seed,
            window: None,
        }
    }

    /// The same spec as a sliding-window session over the last `window`
    /// epochs (see [`SessionSpec::window`]).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Checks that a sketch can be drawn from this spec (the ranges are
    /// listed on [`SessionSpec`]): [`ServiceError::InvalidWindow`] or
    /// [`ServiceError::InvalidSpec`] for session `name` otherwise. Every
    /// path that draws a sketch from untrusted input checks here first.
    pub fn validate(&self, name: &str) -> Result<(), ServiceError> {
        if let Some(window) = self.window {
            if window == 0 || window > MAX_WINDOW_EPOCHS {
                return Err(ServiceError::InvalidWindow {
                    session: name.to_string(),
                    window,
                });
            }
        }
        // `!(x > 0.0 && x < 1.0)` also rejects NaN.
        let reason = if !(1..=64).contains(&self.universe_bits) {
            "universe_bits must be in 1..=64"
        } else if self.rows == 0 {
            "rows must be at least 1"
        } else if self.kind == SketchKind::Ams && self.columns == 0 {
            "ams columns must be at least 1"
        } else if self.kind != SketchKind::Ams && self.thresh == 0 {
            "thresh must be at least 1"
        } else if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            "epsilon must be in (0, 1)"
        } else if !(self.delta > 0.0 && self.delta < 1.0) {
            "delta must be in (0, 1)"
        } else {
            return Ok(());
        };
        Err(ServiceError::InvalidSpec {
            session: name.to_string(),
            reason,
        })
    }

    /// Checks a `u64` batch for session `name`: the session must ingest
    /// `u64` items, and every item must lie below `2^universe_bits` (one OR
    /// over the batch decides it).
    pub fn check_items(&self, name: &str, items: &[u64]) -> Result<(), ServiceError> {
        if self.kind == SketchKind::StructuredMinimum {
            return Err(ServiceError::WrongItemType {
                session: name.to_string(),
                expected: "structured (DNF) set items",
            });
        }
        let bits = items.iter().fold(0, |acc, &x| acc | x);
        if self.universe_bits < 64 && bits >> self.universe_bits != 0 {
            return Err(self.outside_universe(name));
        }
        Ok(())
    }

    /// Checks a structured batch for session `name`: the session must
    /// ingest structured items, each over exactly `universe_bits` variables.
    pub fn check_sets(&self, name: &str, sets: &[DnfFormula]) -> Result<(), ServiceError> {
        if self.kind != SketchKind::StructuredMinimum {
            return Err(ServiceError::WrongItemType {
                session: name.to_string(),
                expected: "u64 stream items",
            });
        }
        if sets.iter().any(|f| f.num_vars() != self.universe_bits) {
            return Err(self.outside_universe(name));
        }
        Ok(())
    }

    fn outside_universe(&self, name: &str) -> ServiceError {
        ServiceError::ItemOutsideUniverse {
            session: name.to_string(),
            universe_bits: self.universe_bits,
        }
    }

    /// The streaming-crate configuration this spec describes.
    pub fn f0_config(&self) -> mcf0_streaming::F0Config {
        mcf0_streaming::F0Config::explicit(self.epsilon, self.delta, self.thresh, self.rows)
    }

    /// The counting-crate configuration (structured sessions).
    pub fn counting_config(&self) -> mcf0_counting::CountingConfig {
        mcf0_counting::CountingConfig::explicit(self.epsilon, self.delta, self.thresh, self.rows)
    }
}

/// Fetches a required member of a JSON object, naming the type on failure.
pub(crate) fn member<'v>(v: &'v Value, ty: &'static str, name: &str) -> Result<&'v Value, DeError> {
    v.get(name).ok_or_else(|| DeError::missing_field(ty, name))
}

// The vendored `#[derive(Serialize/Deserialize)]` supports plain structs
// only, and `kind` is an enum — so the spec's serde (the write-ahead log's
// `Create` records) is spelled out by hand, with the kind encoded as its
// stable snapshot name. Field order is fixed, and `f64` round trips are
// bit-exact under the shim's shortest-roundtrip rendering, so a decoded
// spec compares equal to the encoded one — the property the recovery
// path's draw validation relies on.
impl Serialize for SessionSpec {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        serde::write_json_string(self.kind.name(), out);
        out.push_str(",\"universe_bits\":");
        self.universe_bits.serialize_json(out);
        out.push_str(",\"epsilon\":");
        self.epsilon.serialize_json(out);
        out.push_str(",\"delta\":");
        self.delta.serialize_json(out);
        out.push_str(",\"thresh\":");
        self.thresh.serialize_json(out);
        out.push_str(",\"rows\":");
        self.rows.serialize_json(out);
        out.push_str(",\"columns\":");
        self.columns.serialize_json(out);
        out.push_str(",\"seed\":");
        self.seed.serialize_json(out);
        out.push_str(",\"window\":");
        self.window.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for SessionSpec {
    fn deserialize_json(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "SessionSpec";
        let kind_name = String::deserialize_json(member(v, TY, "kind")?)?;
        let kind = SketchKind::parse(&kind_name)
            .ok_or_else(|| DeError::new(format!("unknown sketch kind `{kind_name}`")))?;
        Ok(SessionSpec {
            kind,
            universe_bits: usize::deserialize_json(member(v, TY, "universe_bits")?)?,
            epsilon: f64::deserialize_json(member(v, TY, "epsilon")?)?,
            delta: f64::deserialize_json(member(v, TY, "delta")?)?,
            thresh: usize::deserialize_json(member(v, TY, "thresh")?)?,
            rows: usize::deserialize_json(member(v, TY, "rows")?)?,
            columns: usize::deserialize_json(member(v, TY, "columns")?)?,
            seed: u64::deserialize_json(member(v, TY, "seed")?)?,
            // Absent in documents and log records written before windowed
            // sessions existed; absence means the classic unwindowed kind.
            window: match v.get("window") {
                Some(w) => Option::<usize>::deserialize_json(w)?,
                None => None,
            },
        })
    }
}

/// Deterministic per-session accounting, maintained on the control plane —
/// never in the partials' state — so it is identical for every batch split and
/// equal to the reference interpreter's ledger on the same command trace
/// (the differential suite pins this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionLedger {
    /// Ingestion batches accepted (both item kinds).
    pub batches: u64,
    /// `u64` stream items accepted, with multiplicity.
    pub items: u64,
    /// Structured set items accepted.
    pub structured_items: u64,
    /// Merges applied *into* this session.
    pub merges: u64,
    /// Epoch advances applied to this (windowed) session.
    pub advances: u64,
}
