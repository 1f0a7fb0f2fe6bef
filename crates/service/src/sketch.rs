//! The per-tenant sketch: one enum over every session kind the service
//! hosts, with a uniform ingest / merge / estimate surface.

use crate::error::ServiceError;
use crate::session::{SessionSpec, SketchKind};
use mcf0_formula::DnfFormula;
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_streaming::{
    AmsF2, BucketingF0, EpochRing, EstimationF0, F0Sketch, MinimumF0, WindowSketch,
};
use mcf0_structured::{DnfSet, StructuredMinimumF0};

/// A session's sketch state. Each of a session's two partials holds one of
/// these, drawn once from the session seed and cloned, fed only the items
/// routed to it; [`TenantSketch::merge_from`] recombines the partials, home
/// then helper, into the exact state of an unpartitioned run.
#[derive(Clone)]
pub enum TenantSketch {
    /// KMV rows.
    Minimum(MinimumF0),
    /// Adaptive-sampling rows.
    Bucketing(BucketingF0),
    /// Trailing-zero rows.
    Estimation(EstimationF0),
    /// AMS F2 counters.
    Ams(AmsF2),
    /// Minimum strategy over structured (DNF set) items.
    StructuredMinimum(StructuredMinimumF0),
}

impl TenantSketch {
    /// Draws a fresh sketch for `spec`. Deterministic: equal specs yield
    /// bit-identical sketches, which is what makes the service's partials
    /// mergeable and the pairwise session merge sound.
    pub fn new(spec: &SessionSpec) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(spec.seed);
        match spec.kind {
            SketchKind::Minimum => TenantSketch::Minimum(MinimumF0::new(
                spec.universe_bits,
                &spec.f0_config(),
                &mut rng,
            )),
            SketchKind::Bucketing => TenantSketch::Bucketing(BucketingF0::new(
                spec.universe_bits,
                &spec.f0_config(),
                &mut rng,
            )),
            SketchKind::Estimation => TenantSketch::Estimation(EstimationF0::new(
                spec.universe_bits,
                &spec.f0_config(),
                &mut rng,
            )),
            SketchKind::Ams => TenantSketch::Ams(AmsF2::new(
                spec.universe_bits,
                spec.rows,
                spec.columns,
                &mut rng,
            )),
            SketchKind::StructuredMinimum => TenantSketch::StructuredMinimum(
                StructuredMinimumF0::new(spec.universe_bits, &spec.counting_config(), &mut rng),
            ),
        }
    }

    /// The kind this sketch variant serves.
    pub fn kind(&self) -> SketchKind {
        match self {
            TenantSketch::Minimum(_) => SketchKind::Minimum,
            TenantSketch::Bucketing(_) => SketchKind::Bucketing,
            TenantSketch::Estimation(_) => SketchKind::Estimation,
            TenantSketch::Ams(_) => SketchKind::Ams,
            TenantSketch::StructuredMinimum(_) => SketchKind::StructuredMinimum,
        }
    }

    /// Feeds a batch of `u64` stream items through the sketch's batched
    /// engine. `Err` on structured sessions (the control plane checks this
    /// before routing, so partials never see the error path).
    pub fn ingest(&mut self, session: &str, items: &[u64]) -> Result<(), ServiceError> {
        match self {
            TenantSketch::Minimum(s) => s.process_stream(items),
            TenantSketch::Bucketing(s) => s.process_stream(items),
            TenantSketch::Estimation(s) => s.process_stream(items),
            TenantSketch::Ams(s) => s.process_stream(items),
            TenantSketch::StructuredMinimum(_) => {
                return Err(ServiceError::WrongItemType {
                    session: session.to_string(),
                    expected: "structured (DNF) set items",
                })
            }
        }
        Ok(())
    }

    /// Feeds a batch of structured set items. `Err` on `u64` sessions.
    pub fn ingest_structured(
        &mut self,
        session: &str,
        sets: &[DnfFormula],
    ) -> Result<(), ServiceError> {
        match self {
            TenantSketch::StructuredMinimum(s) => {
                for f in sets {
                    s.process_item(&DnfSet::new(f.clone()));
                }
                Ok(())
            }
            _ => Err(ServiceError::WrongItemType {
                session: session.to_string(),
                expected: "u64 stream items",
            }),
        }
    }

    /// Merges another sketch of the same draw into this one (see the
    /// per-sketch `merge_from` contracts: distinct-union semantics for the
    /// F0 sketches, multiset-sum for AMS). Panics on a kind or draw
    /// mismatch — the control plane validates specs first.
    pub fn merge_from(&mut self, other: &Self) {
        match (self, other) {
            (TenantSketch::Minimum(a), TenantSketch::Minimum(b)) => a.merge_from(b),
            (TenantSketch::Bucketing(a), TenantSketch::Bucketing(b)) => a.merge_from(b),
            (TenantSketch::Estimation(a), TenantSketch::Estimation(b)) => a.merge_from(b),
            (TenantSketch::Ams(a), TenantSketch::Ams(b)) => a.merge_from(b),
            (TenantSketch::StructuredMinimum(a), TenantSketch::StructuredMinimum(b)) => {
                a.merge_from(b)
            }
            _ => panic!("merge across sketch kinds"),
        }
    }

    /// The sketch's current estimate (F0, or F2 for AMS sessions).
    pub fn estimate(&self) -> f64 {
        match self {
            TenantSketch::Minimum(s) => s.estimate(),
            TenantSketch::Bucketing(s) => s.estimate(),
            TenantSketch::Estimation(s) => s.estimate(),
            TenantSketch::Ams(s) => s.estimate(),
            TenantSketch::StructuredMinimum(s) => s.estimate(),
        }
    }

    /// The Estimation strategy's (ε, δ) estimate given a rough `r`
    /// (`None` for every other kind, and on degenerate `r`).
    pub fn estimate_with_r(&self, r: u32) -> Option<f64> {
        match self {
            TenantSketch::Estimation(s) => s.estimate_with_r(r),
            _ => None,
        }
    }

    /// Approximate sketch size in bits.
    pub fn space_bits(&self) -> usize {
        match self {
            TenantSketch::Minimum(s) => s.space_bits(),
            TenantSketch::Bucketing(s) => s.space_bits(),
            TenantSketch::Estimation(s) => s.space_bits(),
            TenantSketch::Ams(s) => s.space_bits(),
            TenantSketch::StructuredMinimum(s) => s.space_bits(),
        }
    }
}

// Lets [`EpochRing`] hold tenant sketches: the ring only needs clone +
// same-draw merge, which every session kind already provides.
impl WindowSketch for TenantSketch {
    fn merge_from(&mut self, other: &Self) {
        TenantSketch::merge_from(self, other);
    }
}

/// A session's *complete* sketch state: the classic everything-ever sketch,
/// or an epoch-ring of identically-drawn sub-sketches when the spec carries
/// a window. Each partial of a session holds one of these; the two rings
/// stay epoch-aligned because `advance` reaches both, so their fold is a
/// slot-wise merge and every read remains bit-identical to an
/// unpartitioned run.
#[derive(Clone)]
pub enum SessionSketch {
    /// An unwindowed session: one sketch covering the whole stream.
    Plain(TenantSketch),
    /// A windowed session: `K` epoch slots sharing one draw.
    Windowed(EpochRing<TenantSketch>),
}

impl SessionSketch {
    /// Draws the session state for `spec` (the control plane has already
    /// validated `spec.window` against [`crate::service::MAX_WINDOW_EPOCHS`],
    /// so ring allocation here is bounded).
    pub fn new(spec: &SessionSpec) -> Self {
        let template = TenantSketch::new(spec);
        match spec.window {
            Some(window) => SessionSketch::Windowed(EpochRing::new(template, window)),
            None => SessionSketch::Plain(template),
        }
    }

    /// The ring, when the session is windowed.
    pub fn ring(&self) -> Option<&EpochRing<TenantSketch>> {
        match self {
            SessionSketch::Plain(_) => None,
            SessionSketch::Windowed(ring) => Some(ring),
        }
    }

    /// Feeds a batch of `u64` items (windowed sessions: into the current
    /// epoch's slot).
    pub fn ingest(&mut self, session: &str, items: &[u64]) -> Result<(), ServiceError> {
        match self {
            SessionSketch::Plain(s) => s.ingest(session, items),
            SessionSketch::Windowed(ring) => ring.current_mut().ingest(session, items),
        }
    }

    /// Feeds a batch of structured set items (windowed sessions: into the
    /// current epoch's slot).
    pub fn ingest_structured(
        &mut self,
        session: &str,
        sets: &[DnfFormula],
    ) -> Result<(), ServiceError> {
        match self {
            SessionSketch::Plain(s) => s.ingest_structured(session, sets),
            SessionSketch::Windowed(ring) => ring.current_mut().ingest_structured(session, sets),
        }
    }

    /// Moves a windowed session to `epoch`. The control plane validates
    /// windowedness and monotonicity before dispatch, so violations here
    /// are invariant breaches that panic (and the partials' supervisor reports
    /// them as typed values).
    ///
    /// # Panics
    /// On an unwindowed session or a non-advancing epoch.
    pub fn advance(&mut self, session: &str, epoch: u64) {
        match self {
            SessionSketch::Plain(_) => {
                panic!("shard invariant: advance on unwindowed session `{session}`")
            }
            SessionSketch::Windowed(ring) => {
                if let Err(e) = ring.advance(epoch) {
                    panic!("shard invariant: {e} on session `{session}`");
                }
            }
        }
    }

    /// Merges another partial of the same session shape: plain sketches
    /// merge directly, rings slot-wise (the control plane checks that
    /// windowed merges run at equal epochs before dispatch).
    ///
    /// # Panics
    /// On a plain/windowed, window-size or epoch mismatch.
    pub fn absorb(&mut self, other: &Self) {
        match (self, other) {
            (SessionSketch::Plain(a), SessionSketch::Plain(b)) => a.merge_from(b),
            (SessionSketch::Windowed(a), SessionSketch::Windowed(b)) => a.merge_from(b),
            _ => panic!("merge across windowed and unwindowed session state"),
        }
    }

    /// The combined single-sketch view reads fold over: the sketch itself
    /// for plain sessions, the live-window fold for windowed ones. This is
    /// what `estimate` reports and what the set-algebra scratch merges
    /// consume.
    pub fn folded(&self) -> TenantSketch {
        match self {
            SessionSketch::Plain(s) => s.clone(),
            SessionSketch::Windowed(ring) => ring.fold(),
        }
    }

    /// By-value [`SessionSketch::folded`] — skips the clone when the caller
    /// already owns a merged state (every read path does).
    pub fn into_folded(self) -> TenantSketch {
        match self {
            SessionSketch::Plain(s) => s,
            SessionSketch::Windowed(ring) => ring.fold(),
        }
    }

    /// The session state's total size in bits (windowed sessions: summed
    /// over all `K` slots — the memory the ring actually holds).
    pub fn space_bits(&self) -> usize {
        match self {
            SessionSketch::Plain(s) => s.space_bits(),
            SessionSketch::Windowed(ring) => ring.slots().iter().map(|s| s.space_bits()).sum(),
        }
    }
}

/// The shared inclusion–exclusion core of the set-algebra queries, used
/// verbatim by both the service and the reference interpreter so
/// the two replies are bit-identical by construction. Returns
/// `(intersection, jaccard)` from the two sessions' folded views:
/// `inter = est(A) + est(B) − est(A ∪ B)` clamped to `≥ 0` (the raw value
/// goes negative when the sketch error exceeds the true overlap), and
/// `jaccard = inter / est(A ∪ B)` clamped into `[0, 1]` with an empty
/// union reported as similarity 0. Non-finite intermediates sanitize to 0
/// so replies always compare bit-for-bit under `PartialEq`.
pub fn set_algebra_estimates(a: &TenantSketch, b: &TenantSketch) -> (f64, f64) {
    let est_a = a.estimate();
    let est_b = b.estimate();
    let mut union = a.clone();
    union.merge_from(b);
    let est_union = union.estimate();
    let raw = est_a + est_b - est_union;
    let inter = if raw.is_finite() { raw.max(0.0) } else { 0.0 };
    let jaccard = if est_union.is_finite() && est_union > 0.0 {
        (inter / est_union).min(1.0)
    } else {
        0.0
    };
    (inter, jaccard)
}
