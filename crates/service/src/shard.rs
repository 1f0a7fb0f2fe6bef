//! Shard state, the helper threads, and their supervision.
//!
//! A shard is *state*, not a thread: its slice of every session (one
//! complete [`SessionSketch`] per session — a plain sketch or an epoch
//! ring, drawn from the session seed, fed only the items routed to the
//! shard) sits behind one `Mutex` owned by the service, and every command
//! runs on the calling thread. Shards never touch a shared RNG and never
//! talk to each other; reads fold the partials **in shard order** — the
//! same deterministic-merge discipline as the distributed protocols'
//! `par.rs` fan-out, which is why sharding is pure routing and never a
//! semantic change.
//!
//! **Helpers.** Shards 1..K−1 each keep one persistent helper thread
//! (`mcf0-shard-<i>`); shard 0 has none, so a one-shard service runs no
//! thread at all. A routed `u64` sub-batch of at least
//! [`HELPER_MIN_ITEMS`] items is handed to its shard's helper while the
//! caller applies shard 0; anything smaller runs on the caller, where a
//! channel hop and a wake would cost more than the sketch work (DESIGN §7
//! has the sweep that sets the gate).
//!
//! **Supervision.** Every operation on a shard's state, on the caller or
//! on a helper, goes through one wrapper, [`Shard::run`], which runs it
//! under `catch_unwind`: a panic inside the sketch engine (or one injected
//! by the chaos hook) comes back as [`ServiceError::ShardPanicked`], and
//! the shard retires — its partials may be half-updated and must not serve
//! again. No panic ever re-raises in a caller, and no `expect` sits on
//! these paths. Rebuilding a consistent service after a panic is the
//! durable layer's job (checkpoint + log replay); a bare in-memory service
//! surfaces the typed error from every operation that touches the retired
//! shard.

use crate::error::ServiceError;
use crate::sketch::SessionSketch;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Items in a routed sub-batch from which the shard's helper thread takes
/// the work instead of the caller (a property of the input, not a knob;
/// DESIGN §7 records the measurement).
const HELPER_MIN_ITEMS: usize = 1024;

/// One shard's sessions: name → partial.
pub(crate) type Partials = HashMap<String, SessionSketch>;

/// The one job a helper takes: feed a routed sub-batch to a session.
struct ShardRequest {
    name: String,
    items: Vec<u64>,
}

/// A helper's answer, handing the sub-batch buffer back for reuse.
struct ShardReply {
    outcome: Result<(), ServiceError>,
    items: Vec<u64>,
}

/// A shard's partials behind its supervision lock (`None` once a panic has
/// retired the shard), shared by `Arc` with the shard's helper.
struct ShardState {
    index: usize,
    partials: Mutex<Option<Partials>>,
}

impl ShardState {
    fn run<R>(&self, op: impl FnOnce(&mut Partials) -> R) -> Result<R, ServiceError> {
        // `op` always runs under `catch_unwind`, so no panic poisons the
        // lock; a poisoned one reads as retired all the same.
        let Ok(mut guard) = self.partials.lock() else {
            return Err(self.retired());
        };
        let Some(partials) = guard.as_mut() else {
            return Err(self.retired());
        };
        catch_unwind(AssertUnwindSafe(|| op(partials))).map_err(|payload| {
            *guard = None;
            ServiceError::ShardPanicked {
                shard: self.index,
                message: panic_message(payload.as_ref()),
            }
        })
    }

    fn retired(&self) -> ServiceError {
        ServiceError::ShardPanicked {
            shard: self.index,
            message: "shard retired by an earlier panic".into(),
        }
    }
}

/// A helper thread and its two channels.
struct Helper {
    jobs: mpsc::Sender<ShardRequest>,
    /// In a `Mutex` only so the service stays `Sync`; reached through
    /// `get_mut`, never locked.
    replies: Mutex<mpsc::Receiver<ShardReply>>,
    thread: JoinHandle<()>,
    /// A job is out and its reply not yet collected.
    busy: bool,
}

/// One shard: its state, its helper (none for shard 0) and the buffer
/// `ingest` routes its sub-batch into, reused call to call.
pub(crate) struct Shard {
    state: Arc<ShardState>,
    helper: Option<Helper>,
    pub(crate) routed: Vec<u64>,
}

impl Shard {
    pub(crate) fn new(index: usize) -> Self {
        let state = Arc::new(ShardState {
            index,
            partials: Mutex::new(Some(Partials::new())),
        });
        // A helper that cannot be spawned leaves its shard on the caller:
        // the state lives here, so nothing is lost but the parallelism.
        let helper = (index > 0).then(|| spawn_helper(&state)).flatten();
        Shard {
            state,
            helper,
            routed: Vec::new(),
        }
    }

    /// Runs `op` on the shard's partials under supervision (see the module
    /// docs). The one wrapper both the caller and the helper use.
    pub(crate) fn run<R>(&self, op: impl FnOnce(&mut Partials) -> R) -> Result<R, ServiceError> {
        self.state.run(op)
    }

    /// Hands the routed sub-batch to the helper if it is large enough;
    /// [`Shard::finish_ingest`] collects the outcome.
    pub(crate) fn hand_off(&mut self, name: &str) {
        let Some(helper) = self.helper.as_mut() else {
            return;
        };
        if self.routed.len() < HELPER_MIN_ITEMS {
            return;
        }
        let job = ShardRequest {
            name: name.to_string(),
            items: std::mem::take(&mut self.routed),
        };
        match helper.jobs.send(job) {
            Ok(()) => helper.busy = true,
            Err(mpsc::SendError(job)) => self.routed = job.items,
        }
    }

    /// Applies the routed sub-batch: waits for the helper's reply if it
    /// took the batch, runs it here otherwise. Must be called once after
    /// every [`Shard::hand_off`], even when another shard failed.
    pub(crate) fn finish_ingest(&mut self, name: &str) -> Result<(), ServiceError> {
        match self.helper.as_mut().filter(|helper| helper.busy) {
            Some(helper) => {
                helper.busy = false;
                let replies = helper
                    .replies
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                match replies.recv() {
                    Ok(ShardReply { outcome, items }) => {
                        self.routed = items;
                        outcome
                    }
                    // The helper died outside `run` with the batch: the
                    // partials missed it, so the shard must retire.
                    Err(mpsc::RecvError) => self.run(|_| panic!("shard helper thread exited")),
                }
            }
            None if self.routed.is_empty() => Ok(()),
            None => self.run(|partials| ingest(partials, name, &self.routed)),
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Closing the job channel ends the helper's loop; join it so no
        // thread outlives the service.
        if let Some(Helper { jobs, thread, .. }) = self.helper.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn spawn_helper(state: &Arc<ShardState>) -> Option<Helper> {
    let (jobs, inbox) = mpsc::channel::<ShardRequest>();
    let (outbox, replies) = mpsc::channel();
    let shared = Arc::clone(state);
    let thread = std::thread::Builder::new()
        .name(format!("mcf0-shard-{}", state.index))
        .spawn(move || {
            for ShardRequest { name, items } in inbox {
                let outcome = shared.run(|partials| ingest(partials, &name, &items));
                if outbox.send(ShardReply { outcome, items }).is_err() {
                    break;
                }
            }
        })
        .ok()?;
    Some(Helper {
        jobs,
        replies: Mutex::new(replies),
        thread,
        busy: false,
    })
}

/// A session's partial. The control plane vouched for its existence, so a
/// miss is an invariant violation: it panics, and [`Shard::run`] reports it.
pub(crate) fn partial<'a>(partials: &'a mut Partials, name: &str) -> &'a mut SessionSketch {
    match partials.get_mut(name) {
        Some(sketch) => sketch,
        None => panic!("shard invariant: session `{name}` missing"),
    }
}

/// Feeds routed `u64` items to a session's partial (the control plane
/// checked the item kind; a mismatch panics like any invariant).
pub(crate) fn ingest(partials: &mut Partials, name: &str, items: &[u64]) {
    if let Err(e) = partial(partials, name).ingest(name, items) {
        panic!("shard invariant: item kind mismatch ({e})");
    }
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads verbatim, anything else by type-erasure note).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
