//! The two partials of every session, the service's one helper thread, and
//! their supervision.
//!
//! Every session keeps two partial sketches, both drawn from the session
//! seed: the *home* partial (index 0) and the *helper* partial (index 1).
//! They are state, not threads: each sits behind its own `Mutex`, and every
//! command runs on the calling thread but one. The batch picks the
//! partition. A `u64` batch of at least 2 × [`HELPER_MIN_ITEMS`] items is
//! cut into two contiguous halves: the caller applies the first to the home
//! partial while the helper thread (`mcf0-shard-1`) applies the second to
//! the helper partial. A smaller batch, where a channel hop and a wake would
//! cost more than the sketch work, goes whole to the home partial, and so
//! does every structured batch (DESIGN §7 has the measurements). Reads fold
//! the helper partial into the home one. The sketches are functions of the
//! distinct item set (AMS: of the item multiset), so any partition merges
//! back exactly: the split is pure routing, never a semantic change.
//!
//! **Supervision.** Every operation on a partial, on the caller or on the
//! helper, goes through one wrapper, [`Partition::run`], which runs it under
//! `catch_unwind`: a panic inside the sketch engine (or one injected by the
//! chaos hook) comes back as [`ServiceError::ShardPanicked`], and it retires
//! *both* partials. The one that panicked may be half-updated, and a small
//! ingest touches only the home partial, so only retiring both makes every
//! later operation report the panic. No panic ever re-raises in a caller,
//! and no `expect` sits on these paths. Rebuilding a consistent service
//! after a panic is the durable layer's job (checkpoint + log replay).

use crate::error::ServiceError;
use crate::sketch::SessionSketch;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Items each half of a split batch holds at least: a batch under twice
/// this goes whole to the home partial (a property of the input, not a
/// knob; DESIGN §7 records the measurement).
const HELPER_MIN_ITEMS: usize = 1024;

/// Index of the home partial, applied on the caller.
pub(crate) const HOME: usize = 0;
/// Index of the helper partial, applied on the helper thread.
pub(crate) const HELPER: usize = 1;
/// [`State::retired`] while both partials serve.
const SERVING: usize = usize::MAX;

/// One partial's sessions: name → partial sketch.
pub(crate) type Partials = HashMap<String, SessionSketch>;

/// The one job the helper takes: feed the second half of a batch to a
/// session.
struct Job {
    name: String,
    items: Vec<u64>,
}

/// The helper's answer, handing the half-batch buffer back for reuse.
struct Reply {
    outcome: Result<(), ServiceError>,
    items: Vec<u64>,
}

/// Both partials, shared by `Arc` with the helper thread.
struct State {
    partials: [Mutex<Partials>; 2],
    /// [`SERVING`], or the index of the partial whose panic retired both.
    /// Written once, by the `compare_exchange` in [`State::run`]; its
    /// release pairs with the acquire load there, and nothing else is
    /// published through it.
    retired: AtomicUsize,
}

impl State {
    fn run<R>(&self, index: usize, op: impl FnOnce(&mut Partials) -> R) -> Result<R, ServiceError> {
        let retired_by = self.retired.load(Ordering::Acquire);
        if retired_by != SERVING {
            return Err(retired(retired_by));
        }
        // `op` always runs under `catch_unwind`, so no panic poisons the
        // lock; a poisoned one reads as retired all the same.
        let Ok(mut partials) = self.partials[index].lock() else {
            return Err(retired(index));
        };
        catch_unwind(AssertUnwindSafe(|| op(&mut partials))).map_err(|payload| {
            // The first panic names the retirement.
            let _ =
                self.retired
                    .compare_exchange(SERVING, index, Ordering::AcqRel, Ordering::Acquire);
            ServiceError::ShardPanicked {
                shard: index,
                message: panic_message(payload.as_ref()),
            }
        })
    }
}

fn retired(index: usize) -> ServiceError {
    ServiceError::ShardPanicked {
        shard: index,
        message: "shard retired by an earlier panic".into(),
    }
}

/// The helper thread and its two channels.
struct Helper {
    jobs: mpsc::Sender<Job>,
    /// In a `Mutex` only so the service stays `Sync`; reached through
    /// `get_mut`, never locked.
    replies: Mutex<mpsc::Receiver<Reply>>,
    thread: JoinHandle<()>,
}

/// The home and helper partials, the helper thread, and the buffer the
/// second half of a split batch is copied into, reused call to call.
pub(crate) struct Partition {
    state: Arc<State>,
    helper: Option<Helper>,
    spare: Vec<u64>,
}

impl Partition {
    pub(crate) fn new() -> Self {
        let state = Arc::new(State {
            partials: Default::default(),
            retired: AtomicUsize::new(SERVING),
        });
        // A helper that cannot be spawned leaves every batch on the caller:
        // the state lives here, so nothing is lost but the parallelism.
        let helper = spawn_helper(&state);
        Partition {
            state,
            helper,
            spare: Vec::new(),
        }
    }

    /// Runs `op` on partial `index` ([`HOME`] or [`HELPER`]) under
    /// supervision (see the module docs).
    pub(crate) fn run<R>(
        &self,
        index: usize,
        op: impl FnOnce(&mut Partials) -> R,
    ) -> Result<R, ServiceError> {
        self.state.run(index, op)
    }

    /// Runs `op` on both partials, home first; the first typed error wins.
    pub(crate) fn broadcast(&self, op: impl Fn(&mut Partials)) -> Result<(), ServiceError> {
        let home = self.run(HOME, &op);
        home.and(self.run(HELPER, &op))
    }

    /// The session's full state: the home partial cloned, the helper
    /// partial absorbed into it (for rings a slot-wise union: `advance` is
    /// broadcast, so the two rings stay epoch-aligned).
    pub(crate) fn merged(&self, name: &str) -> Result<SessionSketch, ServiceError> {
        let mut merged = self.run(HOME, |partials| partial(partials, name).clone())?;
        self.run(HELPER, |partials| merged.absorb(partial(partials, name)))?;
        Ok(merged)
    }

    /// Feeds a batch of `u64` items to the session: whole to the home
    /// partial, or split in two halves with the second on the helper (see
    /// the module docs). Returns once both halves are applied; the home
    /// half's error wins.
    pub(crate) fn ingest(&mut self, name: &str, items: &[u64]) -> Result<(), ServiceError> {
        if items.is_empty() {
            return Ok(());
        }
        let split = items.len() >= 2 * HELPER_MIN_ITEMS;
        let Some(helper) = self.helper.as_mut().filter(|_| split) else {
            return self
                .state
                .run(HOME, |partials| ingest(partials, name, items));
        };
        let (first, second) = items.split_at(items.len() / 2);
        let mut buffer = std::mem::take(&mut self.spare);
        buffer.clear();
        buffer.extend_from_slice(second);
        // A failed send means the helper has exited; `recv` then fails too.
        let _ = helper.jobs.send(Job {
            name: name.to_string(),
            items: buffer,
        });
        let home = self
            .state
            .run(HOME, |partials| ingest(partials, name, first));
        let replies = helper
            .replies
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let away = match replies.recv() {
            Ok(Reply { outcome, items }) => {
                self.spare = items;
                outcome
            }
            // The helper exited without applying the half: the helper
            // partial missed it, so the partition retires.
            Err(mpsc::RecvError) => self
                .state
                .run(HELPER, |_| panic!("shard helper thread exited")),
        };
        home.and(away)
    }
}

impl Drop for Partition {
    fn drop(&mut self) {
        // Closing the job channel ends the helper's loop; join it so no
        // thread outlives the service.
        if let Some(Helper { jobs, thread, .. }) = self.helper.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn spawn_helper(state: &Arc<State>) -> Option<Helper> {
    let (jobs, inbox) = mpsc::channel::<Job>();
    let (outbox, replies) = mpsc::channel();
    let shared = Arc::clone(state);
    let thread = std::thread::Builder::new()
        .name(format!("mcf0-shard-{HELPER}"))
        .spawn(move || {
            for Job { name, items } in inbox {
                let outcome = shared.run(HELPER, |partials| ingest(partials, &name, &items));
                if outbox.send(Reply { outcome, items }).is_err() {
                    break;
                }
            }
        })
        .ok()?;
    Some(Helper {
        jobs,
        replies: Mutex::new(replies),
        thread,
    })
}

/// A session's partial. The control plane vouched for its existence, so a
/// miss is an invariant violation: it panics, and [`Partition::run`]
/// reports it.
pub(crate) fn partial<'a>(partials: &'a mut Partials, name: &str) -> &'a mut SessionSketch {
    match partials.get_mut(name) {
        Some(sketch) => sketch,
        None => panic!("shard invariant: session `{name}` missing"),
    }
}

/// Feeds `u64` items to a session's partial (the control plane checked the
/// item kind; a mismatch panics like any invariant).
fn ingest(partials: &mut Partials, name: &str, items: &[u64]) {
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
