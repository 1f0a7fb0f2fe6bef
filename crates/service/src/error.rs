//! Error type of the service control plane.

use std::fmt;

/// Why a service command was rejected. Most variants are caller mistakes the
/// control plane detects *before* any partial's state is touched, so
/// a failed command never leaves partial state behind; the fault-model
/// variants ([`ServiceError::Storage`], [`ServiceError::WalRecord`],
/// [`ServiceError::ShardPanicked`], [`ServiceError::Degraded`]) report
/// environment failures as values — the service never lets them escape as
/// panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No session registered under this name.
    UnknownSession(String),
    /// A session with this name already exists (create / restore).
    DuplicateSession(String),
    /// The command's item type does not match the session's sketch kind
    /// (`u64` ingestion into a structured session or vice versa).
    WrongItemType {
        /// Session the command addressed.
        session: String,
        /// What the session's kind ingests.
        expected: &'static str,
    },
    /// The two sessions of a merge were not created from identical
    /// specifications (kind, universe, accuracy parameters **and** seed):
    /// distinct-union merge semantics require shared hash draws.
    MergeIncompatible {
        /// Merge destination.
        dst: String,
        /// Merge source.
        src: String,
    },
    /// A merge named the same session as both destination and source.
    /// Self-merge is a silent corruption, not a no-op: AMS F2 merge is
    /// multiset-*sum*, so the session would double-count every item, and
    /// the F0 kinds would bump the merge ledger without effect.
    MergeSelf(String),
    /// A windowed session's `create` (or a restored snapshot) carried an
    /// unusable window size: zero epochs, or more than
    /// [`crate::service::MAX_WINDOW_EPOCHS`] (the cap keeps a hostile wire
    /// `create` from allocating an unbounded ring — typed rejection before
    /// any slot is drawn).
    InvalidWindow {
        /// Session the create addressed.
        session: String,
        /// The rejected window size.
        window: usize,
    },
    /// A `create` (or a restored snapshot) carried a specification no sketch
    /// can be drawn from (see [`crate::SessionSpec::validate`]): rejected
    /// before anything is drawn.
    InvalidSpec {
        /// Session the create addressed.
        session: String,
        /// Which range the specification violates.
        reason: &'static str,
    },
    /// An ingest carried an item outside the session's universe: a `u64` at
    /// or above `2^universe_bits`, or a structured set over a different
    /// number of variables. Rejected before dispatch, so the batch is never
    /// applied.
    ItemOutsideUniverse {
        /// Session the ingest addressed.
        session: String,
        /// The session's universe width.
        universe_bits: usize,
    },
    /// A windowed command (`advance`, `estimate_window`) addressed a
    /// session created without a window.
    NotWindowed(String),
    /// An `advance` epoch did not move strictly forward. Epochs are
    /// caller-supplied and strictly increasing — a repeat or regression
    /// would silently resurrect retired ring slots, so it is a typed
    /// rejection that leaves the ring untouched.
    EpochRegressed {
        /// Session the advance addressed.
        session: String,
        /// The session's current epoch.
        current: u64,
        /// The (non-advancing) epoch the command requested.
        requested: u64,
    },
    /// The two windowed sessions of a merge sit at different epochs: their
    /// ring slots would not line up epoch-for-epoch, so the slot-wise union
    /// would mix epochs. Advance both sessions to the same epoch first.
    WindowEpochMismatch {
        /// Merge destination.
        dst: String,
        /// Merge source.
        src: String,
    },
    /// A set-algebra query (`intersection_estimate`, `jaccard_estimate`)
    /// named two sessions that were not drawn from identical
    /// specifications; inclusion–exclusion over a scratch merge needs
    /// shared hash draws, exactly like the pairwise merge.
    SpecMismatch {
        /// First session of the pair.
        a: String,
        /// Second session of the pair.
        b: String,
    },
    /// A set-algebra query addressed AMS F2 sessions. Inclusion–exclusion
    /// estimates |A ∪ B| via a distinct-union merge; the AMS merge is
    /// multiset-*sum*, so the identity does not hold for second moments.
    SetAlgebraUnsupported {
        /// First session of the pair.
        a: String,
        /// Second session of the pair.
        b: String,
    },
    /// A snapshot document could not be decoded (malformed JSON, missing
    /// members, or an unknown sketch kind).
    Snapshot(String),
    /// The durable store could not read or write its files (the message
    /// carries the operation and the OS error).
    Storage(String),
    /// A frame (wire line or log record) announced or carried more bytes
    /// than the layer's hard cap. Untrusted length prefixes and unbounded
    /// lines must become this typed rejection *before* any allocation is
    /// attempted — never an OOM or a degraded store.
    FrameTooLarge {
        /// The announced / observed frame size.
        bytes: u64,
        /// The layer's cap ([`crate::wal::MAX_WAL_FRAME_BYTES`] or
        /// [`crate::net::proto::MAX_FRAME_BYTES`]).
        limit: u64,
    },
    /// A write-ahead-log frame at `offset` was torn or corrupt (short
    /// header, length overrun, checksum mismatch, or an undecodable
    /// command payload). Recovery truncates the log here and reports this
    /// value instead of panicking.
    WalRecord {
        /// Byte offset of the bad frame in the log file.
        offset: u64,
        /// What was wrong with the frame.
        reason: String,
    },
    /// An operation on a session partial panicked (on the caller's thread
    /// or the helper thread), or found the partials retired by an earlier
    /// panic. The panic is caught by the partials' supervisor and surfaced
    /// here as a value — it never re-panics in the caller. The in-memory
    /// service is inconsistent after this; [`crate::DurableSketchService`]
    /// reacts by rebuilding from checkpoint + log, a bare
    /// [`crate::SketchService`] should be dropped.
    ShardPanicked {
        /// The partial that panicked: 0 (home) or 1 (helper).
        shard: usize,
        /// The panic payload (or a note that the partials were already
        /// retired).
        message: String,
    },
    /// The durable store gave up on its storage after exhausting the retry
    /// policy and is now in degraded read-only mode: queries keep serving
    /// from memory, mutations are rejected with this error, and
    /// [`crate::DurableSketchService::heal`] re-checkpoints onto repaired
    /// storage to resume.
    Degraded {
        /// The storage failure that forced the transition.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession(name) => write!(f, "unknown session `{name}`"),
            ServiceError::DuplicateSession(name) => {
                write!(f, "session `{name}` already exists")
            }
            ServiceError::WrongItemType { session, expected } => {
                write!(f, "session `{session}` ingests {expected}")
            }
            ServiceError::MergeIncompatible { dst, src } => {
                write!(
                    f,
                    "sessions `{dst}` and `{src}` were not drawn from the same \
                     specification, so their sketches cannot be merged"
                )
            }
            ServiceError::MergeSelf(name) => {
                write!(
                    f,
                    "session `{name}` cannot be merged into itself (AMS merge \
                     is multiset-sum and would double-count the stream)"
                )
            }
            ServiceError::InvalidWindow { session, window } => {
                write!(
                    f,
                    "session `{session}` window of {window} epochs is outside 1..={max}",
                    max = crate::service::MAX_WINDOW_EPOCHS
                )
            }
            ServiceError::InvalidSpec { session, reason } => {
                write!(f, "session `{session}` specification rejected: {reason}")
            }
            ServiceError::ItemOutsideUniverse {
                session,
                universe_bits,
            } => {
                write!(
                    f,
                    "session `{session}` ingests items of its {universe_bits}-bit universe \
                     (u64 values below 2^{universe_bits}, sets over {universe_bits} variables)"
                )
            }
            ServiceError::NotWindowed(name) => {
                write!(f, "session `{name}` was not created with a window")
            }
            ServiceError::EpochRegressed {
                session,
                current,
                requested,
            } => {
                write!(
                    f,
                    "session `{session}` epoch {requested} does not advance past \
                     the current epoch {current}"
                )
            }
            ServiceError::WindowEpochMismatch { dst, src } => {
                write!(
                    f,
                    "windowed sessions `{dst}` (destination) and `{src}` (source) sit at \
                     different epochs; advance both to the same epoch before merging"
                )
            }
            ServiceError::SpecMismatch { a, b } => {
                write!(
                    f,
                    "sessions `{a}` and `{b}` were not drawn from the same specification, \
                     so set-algebra estimates over them are undefined"
                )
            }
            ServiceError::SetAlgebraUnsupported { a, b } => {
                write!(
                    f,
                    "set-algebra estimates over AMS F2 sessions `{a}` and `{b}` are \
                     undefined (AMS merge is multiset-sum, not distinct-union)"
                )
            }
            ServiceError::Snapshot(why) => write!(f, "snapshot rejected: {why}"),
            ServiceError::FrameTooLarge { bytes, limit } => {
                write!(f, "frame of {bytes} bytes exceeds the {limit}-byte cap")
            }
            ServiceError::Storage(why) => write!(f, "durable store: {why}"),
            ServiceError::WalRecord { offset, reason } => {
                write!(f, "write-ahead log frame at byte {offset}: {reason}")
            }
            ServiceError::ShardPanicked { shard, message } => {
                write!(f, "shard worker {shard} panicked: {message}")
            }
            ServiceError::Degraded { reason } => {
                write!(
                    f,
                    "service is degraded to read-only ({reason}); heal() to resume"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}
