//! A persistent work-stealing worker pool for fleet stepping.
//!
//! [`crate::FleetRuntime`] used to spawn a fresh `std::thread::scope`
//! every tick; at fleet tick rates the spawn/join cost rivaled the work.
//! [`StepPool`] keeps its workers alive across ticks, parked on their job
//! channels between phases, so per-tick overhead is one wake message per
//! worker plus a completion rendezvous.
//!
//! # Execution model
//!
//! A phase is a closure that *claims* work items from a shared atomic
//! counter until the counter runs dry (work stealing over member
//! indices — no static sharding, so a member mid-restore cannot stall a
//! whole chunk assigned to one worker). [`StepPool::run`] hands every
//! worker a pointer to the same closure, participates in the claim loop
//! itself on the calling thread, and then blocks until every worker has
//! reported the phase done. Only then does it return — which is what
//! makes the raw borrow of the caller's stack sound.
//!
//! # Determinism
//!
//! Workers race only for *which* index they claim; every result lands in
//! that index's dedicated slot ([`Slots`]). The merged outcome is
//! therefore identical to serial execution regardless of worker count or
//! scheduling order — the fleet's byte-identity oracle tests pin this.
//!
//! # Safety argument
//!
//! Three raw-pointer types carry borrows of the caller's stack into the
//! workers: [`TaskRef`] (the phase closure), [`Slots`] (the result
//! vector) and [`SharedMut`] (the element slice). All three rest on one
//! invariant, the **rendezvous**: [`StepPool::run`] returns — normally
//! or by unwinding — only after it has received one `done` signal from
//! every worker it sent the phase to. A worker sends `done` only after
//! its call of the task has returned or unwound, and it never
//! dereferences the pointer after that. So no worker touches any of the
//! three pointers once `run` has returned, and every borrow they erase
//! is live for every access.
//!
//! The rendezvous holds on every path:
//!
//! * **Normal completion.** The calling thread drains its own claim
//!   loop, then receives one `done` per worker that was sent the job.
//! * **A worker's claim panics.** The worker catches the unwind and
//!   still sends `done`, flagged as panicked. `run` drains every signal
//!   first and only then panics on the calling thread.
//! * **The calling thread's claim panics.** `run` catches that unwind
//!   too, drains every outstanding `done`, and only then resumes it.
//!   Unwinding straight out of `run` would leave workers holding the
//!   task pointer into a dead stack frame, and their late `done`s would
//!   satisfy the *next* phase's rendezvous early.
//! * **A worker is gone.** Workers exit only when the pool is dropped,
//!   which cannot happen while `run` borrows it. A job that cannot be
//!   sent reached no worker, so it is not waited for; a closed `done`
//!   channel means every worker has exited, so none holds a pointer.
//!   Either way `run` panics after the rendezvous, because claims may
//!   have gone unserved.
//!
//! Every `done` of a phase is consumed inside that phase's `run`, so no
//! signal leaks from one phase into the next.
//!
//! Exclusive access through [`Slots`] and [`SharedMut`] comes from the
//! claim loop: an atomic counter hands each index to exactly one thread
//! per phase, so no two threads alias one slot or element. A panic
//! mid-claim leaves that slot empty or that element half-updated, which
//! is memory-safe; `run` then panics, so the caller never reads the
//! slots of a failed phase as complete.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased pointer to the phase closure.
///
/// The pointee lives on the stack of the thread inside
/// [`StepPool::run`], which does not return — normally or by
/// unwinding — until every worker holding this pointer has signaled
/// completion (see the module's safety argument), so the pointer never
/// dangles while a worker can dereference it.
struct TaskRef(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound, and the rendezvous keeps it alive for as long as any worker
// can dereference it.
unsafe impl Send for TaskRef {}

enum Job {
    /// Run one phase; report completion on the done channel.
    Run(TaskRef),
    /// Exit the worker loop.
    Shutdown,
}

/// Persistent worker pool: `extra` parked worker threads plus the calling
/// thread, cooperating on claim-loop phases. Dropping the pool shuts the
/// workers down and joins them.
pub(crate) struct StepPool {
    job_txs: Vec<Sender<Job>>,
    done_rx: Receiver<bool>,
    handles: Vec<JoinHandle<()>>,
}

impl StepPool {
    /// Spawns `extra` worker threads (the calling thread is the final
    /// pool member, so total parallelism is `extra + 1`).
    pub(crate) fn new(extra: usize) -> Self {
        let (done_tx, done_rx) = channel::<bool>();
        let mut job_txs = Vec::with_capacity(extra);
        let mut handles = Vec::with_capacity(extra);
        for i in 0..extra {
            let (tx, rx) = channel::<Job>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fleet-worker-{i}"))
                .spawn(move || worker_loop(&rx, &done))
                .expect("spawn fleet worker");
            job_txs.push(tx);
            handles.push(handle);
        }
        StepPool {
            job_txs,
            done_rx,
            handles,
        }
    }

    /// Total parallelism of a phase: worker threads + the calling thread.
    pub(crate) fn size(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs one phase on every worker plus the calling thread, returning
    /// once all of them have drained the claim loop.
    ///
    /// `task` must be safe to invoke concurrently from multiple threads
    /// (it is `Sync`); the claim-loop idiom — each invocation pulls
    /// disjoint indices from an atomic counter — satisfies this.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the calling thread's own invocation, and
    /// panics if any worker's invocation panicked or a worker is gone —
    /// always only after every worker that received the phase has
    /// reported it done, so a broken member step is never silently
    /// dropped and never outlives the borrow it ran on.
    pub(crate) fn run(&self, task: &(dyn Fn() + Sync)) {
        // SAFETY (lifetime erasure): `task` outlives this call, and this
        // call does not return or unwind before every worker that was
        // sent the pointer has signaled `done` for this phase.
        let ptr: TaskRef = unsafe {
            TaskRef(std::mem::transmute::<
                *const (dyn Fn() + Sync + '_),
                *const (dyn Fn() + Sync + 'static),
            >(task as *const _))
        };
        let sent = self
            .job_txs
            .iter()
            .filter(|tx| tx.send(Job::Run(TaskRef(ptr.0))).is_ok())
            .count();
        // The calling thread is a pool member too: steal until dry. Its
        // panic is caught so that the rendezvous below always runs.
        let caller = catch_unwind(AssertUnwindSafe(task));
        let mut received = 0usize;
        let mut worker_panicked = false;
        while received < sent {
            // A closed channel means every worker has exited, so none
            // still holds the pointer.
            let Ok(panicked) = self.done_rx.recv() else {
                break;
            };
            worker_panicked |= panicked;
            received += 1;
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        assert!(
            !worker_panicked,
            "a fleet worker panicked during a pooled phase"
        );
        assert_eq!(
            received,
            self.job_txs.len(),
            "a fleet worker exited before finishing a pooled phase"
        );
    }
}

impl Drop for StepPool {
    fn drop(&mut self) {
        for tx in &self.job_txs {
            // A worker that already exited (panicked channel) is fine to
            // skip; join below reaps it either way.
            let _ = tx.send(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Receiver<Job>, done: &Sender<bool>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Run(task) => {
                // SAFETY: `StepPool::run` keeps the pointee alive until
                // it has received this worker's `done` for the phase.
                let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)() }));
                // Signal before the panic payload (if any) is dropped:
                // a payload whose destructor panics must not cost the
                // rendezvous its signal.
                if done.send(outcome.is_err()).is_err() {
                    return;
                }
            }
            Job::Shutdown => return,
        }
    }
}

/// Per-index result slots a pooled phase scatters into.
///
/// Wraps a raw pointer to the slot vector living on the caller's stack so
/// the `Sync` phase closure can write results. Soundness rests on the
/// claim-loop discipline (the atomic counter hands each index to exactly
/// one thread, so no slot is ever aliased mutably) and on the rendezvous
/// of [`StepPool::run`], which keeps the vector borrowed until every
/// worker is done with the phase, panics included.
pub(crate) struct Slots<T> {
    base: *mut Option<T>,
    len: usize,
}

// SAFETY: disjoint-index writes only (see type docs); `T: Send` moves
// each value across the worker boundary exactly once.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Wraps a pre-sized slot vector (`vec![None; n]`-style).
    pub(crate) fn new(slots: &mut [Option<T>]) -> Self {
        Slots {
            base: slots.as_mut_ptr(),
            len: slots.len(),
        }
    }

    /// Stores `value` into slot `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds and claimed by exactly one worker for
    /// the duration of the phase (the claim-loop counter guarantees
    /// both), and the phase must run inside [`StepPool::run`] so the
    /// slot vector outlives every write.
    pub(crate) unsafe fn put(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        *self.base.add(index) = Some(value);
    }
}

/// A raw, `Sync` view of a mutable element array that a claim-loop phase
/// indexes into — the managers themselves during fleet stepping.
///
/// Same soundness argument as [`Slots`]: the atomic claim counter hands
/// each index to exactly one worker, so `&mut` access per index is
/// exclusive even though the view itself is shared, and the rendezvous
/// keeps the slice borrowed until the last worker is done.
pub(crate) struct SharedMut<T> {
    base: *mut T,
    len: usize,
}

// SAFETY: disjoint-index access only (see type docs); `T: Send` lets the
// exclusive borrow be used from the claiming worker's thread.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Wraps a mutable slice.
    pub(crate) fn new(items: &mut [T]) -> Self {
        SharedMut {
            base: items.as_mut_ptr(),
            len: items.len(),
        }
    }

    /// Number of elements in the underlying slice.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Exclusive access to element `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds and claimed by exactly one worker for
    /// the duration of the phase, and the phase must run inside
    /// [`StepPool::run`] so the slice outlives every access.
    #[allow(clippy::mut_from_ref)] // The claim-loop contract *is* the exclusivity proof.
    pub(crate) unsafe fn get_mut(&self, index: usize) -> &mut T {
        debug_assert!(index < self.len);
        &mut *self.base.add(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn pool_runs_claim_loop_phases_and_fills_every_slot() {
        let pool = StepPool::new(3);
        assert_eq!(pool.size(), 4);
        let mut values: Vec<u64> = (0..64).collect();
        for round in 0..5u64 {
            let mut slots: Vec<Option<u64>> = (0..values.len()).map(|_| None).collect();
            {
                let out = Slots::new(&mut slots);
                let items = SharedMut::new(&mut values);
                let next = AtomicUsize::new(0);
                pool.run(&|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // SAFETY: `i` is claimed exactly once via the counter.
                    let v = unsafe { items.get_mut(i) };
                    *v += round;
                    unsafe { out.put(i, *v * 2) };
                });
            }
            for (i, s) in slots.iter().enumerate() {
                let expected = (i as u64 + (0..=round).sum::<u64>()) * 2;
                assert_eq!(*s, Some(expected), "slot {i} round {round}");
            }
        }
    }

    #[test]
    fn pool_reports_worker_panics_at_the_rendezvous() {
        let pool = StepPool::new(2);
        let next = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|| {
                // Exactly one claimer panics; the others drain normally.
                if next.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "the phase panic must propagate");
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(&|| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3, "all members still run");
    }

    /// The calling thread takes the panicking claim while both workers
    /// are inside the phase: it waits until they have entered, and they
    /// stay until it has failed. `run` must not unwind before they are
    /// done with the borrowed closure, and none of their `done` signals
    /// may leak into the next phase's rendezvous.
    #[test]
    fn caller_panic_waits_for_workers_inside_the_phase() {
        let pool = StepPool::new(2);
        let workers = pool.size() - 1;
        let caller = std::thread::current().id();
        for round in 0..200 {
            let entered = AtomicUsize::new(0);
            let failing = AtomicBool::new(false);
            let left = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|| {
                    if std::thread::current().id() == caller {
                        while entered.load(Ordering::SeqCst) < workers {
                            std::thread::yield_now();
                        }
                        failing.store(true, Ordering::SeqCst);
                        panic!("the calling thread's claim fails");
                    }
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !failing.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    left.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(result.is_err(), "round {round}: the caller's panic must propagate");
            assert_eq!(
                left.load(Ordering::SeqCst),
                workers,
                "round {round}: run unwound while workers were still inside the phase"
            );
            let count = AtomicUsize::new(0);
            pool.run(&|| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(
                count.load(Ordering::SeqCst),
                pool.size(),
                "round {round}: the next phase returned before all its members ran"
            );
        }
    }
}
