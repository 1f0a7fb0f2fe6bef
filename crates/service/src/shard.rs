//! The service's one helper thread, and the supervision of every session's
//! two partials.
//!
//! Every session entry owns two partial sketches, drawn once from the
//! session seed and cloned: the *home* partial (index 0) and the *helper*
//! partial (index 1). They are state, not threads: every command runs on
//! the calling thread but one. The batch picks the partition. A `u64` batch
//! of at least 2 × [`HELPER_MIN_ITEMS`] items is cut into two contiguous
//! halves: the caller moves the helper partial into a job with the second
//! half and applies the first half to the home partial, while the helper
//! thread (`mcf0-shard-1`) applies the second half and sends the partial
//! back in its reply. A smaller batch, where a channel hop and a wake would
//! cost more than the sketch work, goes whole to the home partial, and so
//! does every structured batch (DESIGN §7 has the measurements). Reads fold
//! the helper partial into the home one. The sketches are functions of the
//! distinct item set (AMS: of the item multiset), so any partition merges
//! back exactly: the split is pure routing, never a semantic change.
//!
//! **Supervision.** Every operation on a partial runs under
//! `catch_unwind`: on the caller through [`Partition::run`], on the helper
//! around its half. A panic inside the sketch engine (or one injected by
//! the chaos hook) comes back as [`ServiceError::ShardPanicked`], and it
//! retires the service: the one flag [`Partition::run`] checks first. The
//! partial that panicked may be half-updated, and a small ingest touches
//! only the home partial, so only retiring both makes every later operation
//! report the panic. A helper thread lost before it replies retires the
//! service too, so no read ever needs the partial it took. No panic ever
//! re-raises in a caller, and no `expect` sits on these paths. Rebuilding a
//! consistent service after a panic is the durable layer's job (checkpoint
//! + log replay).

use crate::error::ServiceError;
use crate::sketch::SessionSketch;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Items each half of a split batch holds at least: a batch under twice
/// this goes whole to the home partial (a property of the input, not a
/// knob; DESIGN §7 records the measurement).
const HELPER_MIN_ITEMS: usize = 1024;

/// Index of the home partial, applied on the caller.
pub(crate) const HOME: usize = 0;
/// Index of the helper partial, applied on the helper thread.
pub(crate) const HELPER: usize = 1;
/// [`Partition::retired`] while both partials serve.
const SERVING: usize = usize::MAX;

/// The one job the helper takes: the helper partial, by value, and the
/// second half of a batch to feed it.
struct Job {
    partial: SessionSketch,
    half: Vec<u64>,
}

/// The helper's answer: the job back (the partial, and the half-batch
/// buffer for reuse), and the panic payload if applying the half panicked.
type Reply = (Job, std::thread::Result<()>);

/// The helper thread and its two channels.
struct Helper {
    jobs: mpsc::Sender<Job>,
    /// In a `Mutex` only so the service stays `Sync`; locked only by
    /// [`Partition::ingest`], which holds `&mut self`, so never contended.
    replies: Mutex<mpsc::Receiver<Reply>>,
    thread: JoinHandle<()>,
}

/// The retirement flag, the helper thread, and the buffer the second half
/// of a split batch is copied into, reused call to call.
pub(crate) struct Partition {
    /// [`SERVING`], or the index of the partial whose panic retired the
    /// service. Written once, by the `compare_exchange` in `retire`; its
    /// release pairs with the acquire load in [`Partition::run`], and
    /// nothing else is published through it.
    retired: AtomicUsize,
    helper: Option<Helper>,
    spare: Vec<u64>,
}

impl Partition {
    pub(crate) fn new() -> Self {
        Partition {
            retired: AtomicUsize::new(SERVING),
            // A helper that cannot be spawned leaves every batch on the
            // caller: the partials live in the sessions, so nothing is lost
            // but the parallelism.
            helper: spawn_helper(),
            spare: Vec::new(),
        }
    }

    /// Runs `op`, an operation on partial `index` ([`HOME`] or [`HELPER`]),
    /// under supervision (see the module docs).
    pub(crate) fn run<R>(&self, index: usize, op: impl FnOnce() -> R) -> Result<R, ServiceError> {
        let retired_by = self.retired.load(Ordering::Acquire);
        if retired_by != SERVING {
            return Err(ServiceError::ShardPanicked {
                shard: retired_by,
                message: "shard retired by an earlier panic".into(),
            });
        }
        catch_unwind(AssertUnwindSafe(op)).map_err(|payload| self.retire(index, payload.as_ref()))
    }

    /// Retires the service for a panic in partial `index`; the first panic
    /// names the retirement.
    fn retire(&self, index: usize, payload: &(dyn Any + Send)) -> ServiceError {
        let _ = self
            .retired
            .compare_exchange(SERVING, index, Ordering::AcqRel, Ordering::Acquire);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        ServiceError::ShardPanicked {
            shard: index,
            message,
        }
    }

    /// Feeds a batch of `u64` items to a session's partials: whole to the
    /// home partial, or split in two halves with the second on the helper
    /// (see the module docs). Returns once both halves are applied and the
    /// helper partial is back in `helper`; the home half's error wins.
    pub(crate) fn ingest(
        &mut self,
        home: &mut SessionSketch,
        helper: &mut Option<SessionSketch>,
        items: &[u64],
    ) -> Result<(), ServiceError> {
        if items.is_empty() {
            return Ok(());
        }
        let split = items.len() >= 2 * HELPER_MIN_ITEMS;
        let job = self.helper.as_ref().filter(|_| split);
        let Some((thread, partial)) = job.and_then(|thread| Some((thread, helper.take()?))) else {
            return self.run(HOME, || apply(home, items));
        };
        let (first, second) = items.split_at(items.len() / 2);
        let mut half = std::mem::take(&mut self.spare);
        half.clear();
        half.extend_from_slice(second);
        // A failed send means the helper has exited; `recv` then fails too.
        let _ = thread.jobs.send(Job { partial, half });
        let home = self.run(HOME, || apply(home, first));
        let replies = thread.replies.lock();
        let away = match replies.unwrap_or_else(PoisonError::into_inner).recv() {
            Ok((job, outcome)) => {
                *helper = Some(job.partial);
                self.spare = job.half;
                outcome.map_err(|payload| self.retire(HELPER, &*payload))
            }
            // The helper exited without replying, and its partial with it:
            // the service retires, so no read needs that partial again.
            Err(mpsc::RecvError) => Err(self.retire(HELPER, &"shard helper thread exited")),
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

fn spawn_helper() -> Option<Helper> {
    let (jobs, inbox) = mpsc::channel::<Job>();
    let (outbox, replies) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(format!("mcf0-shard-{HELPER}"))
        .spawn(move || {
            for mut job in inbox {
                let outcome = catch_unwind(AssertUnwindSafe(|| apply(&mut job.partial, &job.half)));
                if outbox.send((job, outcome)).is_err() {
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

/// Feeds `u64` items to a partial (the control plane checked the item
/// kind; a mismatch panics like any invariant).
fn apply(partial: &mut SessionSketch, items: &[u64]) {
    if partial.ingest("", items).is_err() {
        panic!("shard invariant: item kind mismatch");
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unit tests may unwrap
mod tests {
    use super::*;
    use crate::session::{SessionSpec, SketchKind};

    /// Where a windowed partial keeps its ring slots. A partial that moves
    /// keeps this heap address; a clone gets a new one.
    fn slots_address(partial: &Option<SessionSketch>) -> usize {
        partial
            .as_ref()
            .and_then(|p| p.ring())
            .unwrap()
            .slots()
            .as_ptr() as usize
    }

    fn retired_by_helper<R>(result: Result<R, ServiceError>) -> bool {
        matches!(
            result,
            Err(ServiceError::ShardPanicked { shard: HELPER, .. })
        )
    }

    #[test]
    fn a_helper_thread_panic_retires_the_service_and_returns_the_partial() {
        let spec = SessionSpec::new(SketchKind::Minimum, 16, 12, 3, 7).with_window(2);
        let items: Vec<u64> = (0..2 * HELPER_MIN_ITEMS as u64).collect();
        let mut partition = Partition::new();

        // A split batch moves the helper partial to the helper thread and
        // back: the same slots return.
        let mut home = SessionSketch::new(&spec);
        let mut helper = Some(home.clone());
        let slots = slots_address(&helper);
        partition.ingest(&mut home, &mut helper, &items).unwrap();
        assert_eq!(slots_address(&helper), slots);

        // A helper partial of the wrong kind panics on the helper thread
        // only; the partial still comes back, moved, not copied.
        let structured = SessionSpec::new(SketchKind::StructuredMinimum, 16, 12, 3, 7);
        let mut helper = Some(SessionSketch::new(&structured.with_window(2)));
        let slots = slots_address(&helper);
        let err = partition
            .ingest(&mut home, &mut helper, &items)
            .unwrap_err();
        assert!(err.to_string().contains("item kind mismatch"), "{err}");
        assert!(retired_by_helper::<()>(Err(err)));
        assert_eq!(slots_address(&helper), slots);

        // Every later read, ingest (whole or split) and create reports the
        // retirement.
        assert!(retired_by_helper(partition.run(HOME, || home.clone())));
        assert!(retired_by_helper(partition.ingest(
            &mut home,
            &mut helper,
            &items[..16]
        )));
        assert!(retired_by_helper(partition.ingest(
            &mut home,
            &mut helper,
            &items
        )));
        assert!(retired_by_helper(
            partition.run(HOME, || SessionSketch::new(&spec))
        ));

        // Dropping the partition joins the helper thread: once `drop`
        // returns, the thread's end of the reply channel is gone.
        let thread = partition.helper.as_mut().unwrap();
        let replies = std::mem::replace(&mut thread.replies, Mutex::new(mpsc::channel().1));
        drop(partition);
        let replies = replies.into_inner().unwrap();
        assert_eq!(
            replies.try_recv().err(),
            Some(mpsc::TryRecvError::Disconnected)
        );
    }
}
