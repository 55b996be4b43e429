//! Deterministic fan-out over independent work items.
//!
//! The experiment drivers iterate a device roster where every item
//! owns its own seeded RNG stream, so the loop bodies are
//! embarrassingly parallel. [`with_pool`] spawns a fixed set of scoped
//! workers once and lends them one batch at a time through
//! [`Pool::map`], which returns results **in input order**. That is
//! the whole trick: merging in roster order makes every downstream
//! table, `FaultStats` accumulation, and float summation identical to
//! the sequential run, regardless of how many workers raced.
//!
//! Worker counts are explicit. Callers hold a context that resolved
//! `IOTLS_THREADS` once at construction (through [`worker_count`]), so
//! nothing here reads the environment. With at most one worker the
//! closure runs inline on the caller's thread: zero overhead, and the
//! degenerate case is trivially identical to the sequential code.
//!
//! Std-only (`std::thread::scope`, one `Mutex` and two `Condvar`s, no
//! `unsafe`); the workspace stays offline-buildable with no new
//! dependencies.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "IOTLS_THREADS";

/// Most items a worker claims per visit to the shared batch: one lock
/// acquisition moves a block in, the next moves its outputs out and
/// claims the following block.
const BLOCK: usize = 16;

/// Resolves the worker count: `IOTLS_THREADS` if set to a positive
/// integer, otherwise available parallelism, otherwise 1.
pub fn worker_count() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The batch the workers of one pool share.
struct Batch<T, R> {
    /// Unclaimed items; `next` is the input index of the first one.
    items: std::vec::IntoIter<T>,
    next: usize,
    /// One output slot per input index, reused across batches.
    slots: Vec<Option<R>>,
    /// Items whose block has not yet come back.
    unsettled: usize,
    /// The first panic caught on a worker during this batch.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the pool ends: parked workers exit.
    closed: bool,
}

struct Shared<T, R> {
    workers: usize,
    batch: Mutex<Batch<T, R>>,
    /// Workers park here until a batch is posted or the pool closes.
    posted: Condvar,
    /// The caller waits here for the last block of a batch.
    settled: Condvar,
}

/// Nothing that runs under the batch lock calls the pool's closures,
/// so a poisoned lock means the pool itself is broken.
const POISONED: &str = "pool batch lock poisoned";

impl<T, R> Shared<T, R> {
    fn lock(&self) -> MutexGuard<'_, Batch<T, R>> {
        self.batch.lock().expect(POISONED)
    }

    /// One worker's life: claim a block, run it outside the lock, hand
    /// the outputs back and claim the next block under one lock, park
    /// when the batch is drained. The state is built on the worker's
    /// first item and kept until the pool closes.
    fn work<S, I, F>(&self, init: &I, f: &F)
    where
        I: Fn() -> S,
        F: Fn(&mut S, T) -> R,
    {
        let mut state: Option<S> = None;
        let mut claimed: Vec<T> = Vec::with_capacity(BLOCK);
        let mut outputs: Vec<R> = Vec::with_capacity(BLOCK);
        let mut batch = self.lock();
        loop {
            if batch.closed {
                return;
            }
            if batch.items.as_slice().is_empty() {
                batch = self.posted.wait(batch).expect(POISONED);
                continue;
            }
            // Blocks shrink near the end of a batch, so a few heavy
            // items (a roster sweep) still spread over every worker.
            let take = (batch.items.len() / (2 * self.workers)).clamp(1, BLOCK);
            let start = batch.next;
            claimed.extend(batch.items.by_ref().take(take));
            let len = claimed.len();
            batch.next += len;
            drop(batch);

            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                let state = state.get_or_insert_with(init);
                for item in claimed.drain(..) {
                    outputs.push(f(state, item));
                }
            }));

            batch = self.lock();
            for (slot, out) in batch.slots[start..].iter_mut().zip(outputs.drain(..)) {
                *slot = Some(out);
            }
            batch.unsettled -= len;
            if let Err(payload) = ran {
                // The batch is lost: drop what nobody claimed yet so
                // the caller wakes as soon as the blocks in flight land.
                batch.unsettled -= batch.items.len();
                batch.items = Vec::new().into_iter();
                batch.panic.get_or_insert(payload);
            }
            if batch.unsettled == 0 {
                self.settled.notify_one();
            }
        }
    }

    /// Posts `items` to the parked workers and waits for every block.
    fn map(&self, items: Vec<T>) -> Vec<R> {
        let len = items.len();
        if len == 0 {
            return Vec::new();
        }
        let mut batch = self.lock();
        batch.slots.clear();
        batch.slots.resize_with(len, || None);
        batch.items = items.into_iter();
        batch.next = 0;
        batch.unsettled = len;
        self.posted.notify_all();
        while batch.unsettled > 0 {
            batch = self.settled.wait(batch).expect(POISONED);
        }
        if let Some(payload) = batch.panic.take() {
            drop(batch);
            panic::resume_unwind(payload);
        }
        batch
            .slots
            .drain(..)
            .map(|out| out.expect("every claimed item ran"))
            .collect()
    }

    /// Releases the parked workers. Runs in `Drop`, so it must not
    /// panic: setting the flag is valid whatever state a poisoned lock
    /// holds.
    fn close(&self) {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.posted.notify_all();
    }
}

enum Lanes<'a, T, R, S, I, F> {
    /// At most one worker: items run on the caller's thread.
    Inline {
        state: Option<S>,
        init: &'a I,
        f: &'a F,
    },
    /// Workers parked on a shared batch.
    Workers(&'a Shared<T, R>),
}

/// A worker pool lent to the body of [`with_pool`]; see there. The
/// state, `init` and closure types are part of the pool's type so the
/// inline path calls the closure directly, as a sequential loop would.
pub struct Pool<'a, T, R, S, I, F> {
    lanes: Lanes<'a, T, R, S, I, F>,
}

impl<T, R, S, I, F> Pool<'_, T, R, S, I, F>
where
    I: Fn() -> S,
    F: Fn(&mut S, T) -> R,
{
    /// Runs the pool's closure over every item and returns the outputs
    /// in input order. Workers claim items in blocks (of up to 16), so a
    /// batch costs one lock acquisition per block, not per item, and a
    /// bounded number of allocations (the output vector) whatever its
    /// length once the pool is warm.
    ///
    /// A panic in the closure propagates out of `map` (the first one,
    /// if several workers panic) after the blocks in flight have come
    /// back; the items nobody had claimed are dropped unrun. The pool
    /// stays usable.
    pub fn map(&mut self, items: Vec<T>) -> Vec<R> {
        match &mut self.lanes {
            Lanes::Inline { state, init, f } => items
                .into_iter()
                .map(|item| f(state.get_or_insert_with(*init), item))
                .collect(),
            Lanes::Workers(shared) => shared.map(items),
        }
    }
}

impl<T, R, S, I, F> Drop for Pool<'_, T, R, S, I, F> {
    fn drop(&mut self) {
        if let Lanes::Workers(shared) = &self.lanes {
            shared.close();
        }
    }
}

/// Runs `body` with a pool of `workers` threads that apply `f` to the
/// items of every batch `body` hands to [`Pool::map`].
///
/// The workers are spawned once, inside one `std::thread::scope`, and
/// park between batches. Each owns a mutable state that `init` builds
/// on that worker's thread when it takes its first item — the vehicle
/// for reusable scratch (warm buffers, middleware chains) across every
/// batch of the run — so the state type needs no `Send`. `init` runs
/// at most once per worker per pool; a panic in it reaches
/// [`Pool::map`] like a panic in `f`.
///
/// With `0` or `1` workers there are no threads: `body` runs on the
/// caller's thread and every item runs inline on it, under one state
/// for the pool's whole life, identical to a sequential loop.
///
/// `f` must depend only on its item (plus shared read-only state and
/// whatever its state carries that never changes an output) — the
/// usual shape is "replay this session" or "build a fresh lab from a
/// per-device seed, run the probe, return the rows".
pub fn with_pool<T, R, S, I, F, B, O>(workers: usize, init: I, f: F, body: B) -> O
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
    B: FnOnce(&mut Pool<'_, T, R, S, I, F>) -> O,
{
    if workers <= 1 {
        return body(&mut Pool {
            lanes: Lanes::Inline {
                state: None,
                init: &init,
                f: &f,
            },
        });
    }

    let shared = Shared {
        workers,
        batch: Mutex::new(Batch {
            items: Vec::new().into_iter(),
            next: 0,
            slots: Vec::new(),
            unsettled: 0,
            panic: None,
            closed: false,
        }),
        posted: Condvar::new(),
        settled: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| shared.work(&init, &f));
        }
        // Dropping the pool, on return or on unwind, releases the
        // workers, so the scope's join never waits on a parked one.
        let mut pool = Pool {
            lanes: Lanes::Workers(&shared),
        };
        body(&mut pool)
    })
}

/// One batch through a pool of at most `workers` threads (clamped to
/// the item count), each with a mutable state built by `init`: the
/// shape of a fan-out that runs once, such as a roster sweep.
pub fn ordered_map_with_state<T, R, S, I, F>(workers: usize, items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    with_pool(workers.min(items.len()), init, f, |pool| pool.map(items))
}

/// [`ordered_map_with_state`] without per-worker state: applies `f` to
/// every item on at most `workers` threads and returns the outputs in
/// input order. `0` and `1` both run inline on the caller's thread.
pub fn ordered_map_with<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    ordered_map_with_state(workers, items, || (), |(), item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WORKERS: [usize; 4] = [0, 1, 2, 8];
    const SIZES: [usize; 10] = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 63, 64, 65, 4_096];

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = ordered_map_with(4, items.clone(), |i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(ordered_map_with(4, Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(ordered_map_with(4, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn moves_non_clone_items() {
        let items = vec![String::from("a"), String::from("bb")];
        let out = ordered_map_with(2, items, |s| s.len());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn worker_count_floor_is_one() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn single_item_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let out = ordered_map_with(8, vec![()], |()| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn every_worker_count_matches_the_sequential_map() {
        let items: Vec<usize> = (0..64).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 7).collect();
        for workers in [0, 1, 2, 8, 100] {
            assert_eq!(ordered_map_with(workers, items.clone(), |i| i * 7), want);
        }
    }

    #[test]
    fn zero_and_one_worker_run_inline() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let out = ordered_map_with(workers, vec![(), ()], |()| std::thread::current().id());
            assert_eq!(out, vec![caller, caller]);
        }
    }

    #[test]
    fn stateful_map_matches_stateless_in_order() {
        let items: Vec<usize> = (0..64).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 7).collect();
        for workers in [0, 1, 2, 8, 100] {
            let out = ordered_map_with_state(
                workers,
                items.clone(),
                Vec::<u8>::new,
                |scratch, i| {
                    scratch.clear();
                    scratch.extend_from_slice(&i.to_le_bytes());
                    i * 7
                },
            );
            assert_eq!(out, want);
        }
    }

    #[test]
    fn stateful_map_state_persists_within_worker() {
        // Inline (1 worker): a single state sees every item.
        let out = ordered_map_with_state(1, vec![1u64, 2, 3], || 0u64, |acc, i| {
            *acc += i;
            *acc
        });
        assert_eq!(out, vec![1, 3, 6]);
    }

    #[test]
    fn pool_preserves_order_over_successive_batches() {
        for workers in WORKERS {
            with_pool(workers, || (), |(), i: usize| i * 3 + 1, |pool| {
                for len in SIZES {
                    let out = pool.map((0..len).collect());
                    let want: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                    assert_eq!(out, want, "{workers} workers, batch of {len}");
                }
            });
        }
    }

    #[test]
    fn a_short_batch_spreads_over_every_worker() {
        // Each item waits until every item has started, so the batch
        // can only finish if no worker claimed two of them.
        let started = Mutex::new(0);
        let all_started = Condvar::new();
        let out = ordered_map_with(4, vec![0, 1, 2, 3], |i| {
            let mut count = started.lock().unwrap();
            *count += 1;
            all_started.notify_all();
            let (_count, wait) = all_started
                .wait_timeout_while(count, std::time::Duration::from_secs(10), |n| *n < 4)
                .unwrap();
            assert!(!wait.timed_out(), "one worker claimed two items of a 4-item batch");
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn init_runs_at_most_once_per_worker_and_state_carries_across_batches() {
        for workers in WORKERS {
            let inits = AtomicUsize::new(0);
            // Each state counts the items its worker ran; an output is
            // that running count, so the largest output of each worker
            // keeps growing across batches only if its state survives.
            let seen = with_pool(
                workers,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    (std::thread::current().id(), 0usize)
                },
                |(id, count), _: usize| {
                    *count += 1;
                    (*id, *count)
                },
                |pool| {
                    let mut seen = Vec::new();
                    for len in SIZES {
                        seen.extend(pool.map((0..len).collect()));
                    }
                    seen
                },
            );
            let lanes = workers.max(1);
            assert!(inits.load(Ordering::Relaxed) <= lanes, "{workers} workers");
            let total: usize = SIZES.iter().sum();
            let mut last: Vec<(std::thread::ThreadId, usize)> = Vec::new();
            for (id, count) in seen {
                match last.iter_mut().find(|(t, _)| *t == id) {
                    Some((_, c)) => {
                        assert!(count > *c, "a worker's count went back: state was rebuilt");
                        *c = count;
                    }
                    None => last.push((id, count)),
                }
            }
            assert!(last.len() <= lanes);
            assert_eq!(last.iter().map(|(_, c)| c).sum::<usize>(), total);
        }
    }

    #[test]
    fn zero_and_one_worker_pools_run_on_the_caller() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            with_pool(
                workers,
                || std::thread::current().id(),
                |built_on, _: usize| (*built_on, std::thread::current().id()),
                |pool| {
                    for len in [1, 65] {
                        for ids in pool.map((0..len).collect()) {
                            assert_eq!(ids, (caller, caller), "{workers} workers");
                        }
                    }
                },
            );
        }
    }

    #[test]
    fn a_panic_in_one_item_reaches_the_caller() {
        for workers in WORKERS {
            let caught = panic::catch_unwind(|| {
                with_pool(
                    workers,
                    || (),
                    |(), i: usize| {
                        if i == 40 {
                            panic!("item {i}");
                        }
                        i
                    },
                    |pool| pool.map((0..200).collect()),
                )
            });
            let payload = caught.expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 40"));
        }
    }

    #[test]
    fn a_pool_stays_usable_after_a_panicking_batch() {
        for workers in WORKERS {
            with_pool(
                workers,
                || (),
                |(), i: usize| {
                    if i == 1_000 {
                        panic!("poisoned");
                    }
                    i + 1
                },
                |pool| {
                    let caught =
                        panic::catch_unwind(AssertUnwindSafe(|| pool.map((0..2_000).collect())));
                    assert!(caught.is_err(), "{workers} workers");
                    assert_eq!(pool.map((0..100).collect()), (1..101).collect::<Vec<_>>());
                },
            );
        }
    }
}
