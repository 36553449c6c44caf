//! The persistent worker pool an [`Arena`](crate::Arena) owns.
//!
//! A kernel call that splits its work (the GEMM's row blocks, the depthwise
//! kernel's planes, the conv prologue's patch rows and `pack_b` panels)
//! hands the pieces to [`Pool::run`]. The pool's threads live as long as
//! the arena: they start on the first call that splits work, park on a
//! condition variable between calls, and are joined when the arena drops.
//! So a split costs one wake-up, not a thread spawn and join.
//!
//! * **Width.** `available_parallelism`, read once per pool, on the first
//!   kernel call that asks for it. The caller is one of the participants,
//!   so a pool of width `w` runs `w − 1` threads. Nothing else sets the
//!   width; tests build pools of width 1–4 with `Pool::with_width`.
//! * **Claiming.** The caller and the workers take parts from one shared
//!   counter. The caller starts at once, so a worker that has not woken
//!   yet costs nothing: its part is run by whoever gets there first.
//! * **Scope.** `run` returns only after every part has finished and
//!   every worker has left the call, so parts may borrow the caller's
//!   stack, `&mut` slices included. That holds when a part panics too: the
//!   panic is caught where it happens, the call still drains, and the
//!   first panic then resumes on the caller. The pool stays usable.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use std::{fmt, thread};

/// A worker pool of fixed width whose threads start on first use. See the
/// module docs.
#[derive(Default)]
pub(crate) struct Pool {
    /// Participants per call, the caller included: `None` until first read.
    width: Option<usize>,
    /// The threads, once started, and what they share with the caller.
    crew: Option<Crew>,
}

struct Crew {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Counts published calls (and shutdown), so a worker joins each call
    /// at most once. Written under the lock; spinning workers read it
    /// without.
    epoch: AtomicU64,
    /// Workers inside the current call. Written under the lock; a caller
    /// spinning at the end of its call reads it without.
    inside: AtomicUsize,
    /// Signalled when a call is published to parked workers, and on
    /// shutdown.
    wake: Condvar,
    /// Signalled when the last worker leaves a call whose caller parked.
    left: Condvar,
}

struct State {
    /// The current call's claim loop; `None` between calls.
    job: Option<Job>,
    /// Workers parked on `wake`.
    parked: usize,
    /// Whether the caller is parked on `left`.
    waiting: bool,
    shutdown: bool,
    /// Keeps workers out of every call, as if none had woken in time.
    #[cfg(test)]
    held: bool,
}

/// A call's claim loop with its lifetime erased.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, and `Pool::run` keeps it alive until every
// worker that copied the pointer has left the call.
unsafe impl Send for Job {}

/// The parts of one call, indexed by the claim counter.
struct Parts<T>(*mut T);

// SAFETY: each index is claimed exactly once, so every part is reached
// through one `&mut` on one thread; sending a part needs `T: Send`.
unsafe impl<T: Send> Sync for Parts<T> {}

impl<T> Parts<T> {
    /// Part `i`; dereferencing it needs `i` below the parts' length.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// Locks the state. No code panics while holding the lock, and every
/// update is a single field write, so a poisoned state is still valid.
fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a worker that has left a call, and a caller whose workers are
/// still inside one, spin before they park. Parking costs each side a
/// futex wake of a few microseconds; a conv's im2col, `pack_b` and GEMM
/// calls follow each other within far less than this, and most of a
/// forward's layers within about this.
const SPIN: Duration = Duration::from_micros(100);

/// Spins while `busy()` holds, for at most [`SPIN`]; returns whether it
/// still holds.
fn spin_while(busy: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while busy() {
        if start.elapsed() >= SPIN {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

impl Pool {
    /// A pool of `width` participants, caller included (tests only: a
    /// serving pool reads its width from the machine).
    #[cfg(test)]
    pub(crate) fn with_width(width: usize) -> Self {
        Self { width: Some(width.max(1)), crew: None }
    }

    /// Participants per call, the caller included; read from
    /// `available_parallelism` on first use.
    pub(crate) fn width(&mut self) -> usize {
        *self.width.get_or_insert_with(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// Runs `f` once on every element of `parts`, on the caller and the
    /// pool's workers, and returns when all have finished. A panic in any
    /// part resumes on the caller after the call has drained.
    pub(crate) fn run<T: Send>(&mut self, parts: &mut [T], f: impl Fn(&mut T) + Sync) {
        if parts.len() <= 1 || self.width() <= 1 {
            parts.iter_mut().for_each(f);
            return;
        }
        let shared = Arc::clone(&self.crew().shared);
        let (len, parts) = (parts.len(), Parts(parts.as_mut_ptr()));
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // The counter only hands out indices: the parts reach the workers
        // through the state lock, and come back through `inside`.
        let claim = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            // SAFETY: `i < len` and the counter hands out each index once,
            // so this is the only reference to part `i`.
            let part = unsafe { &mut *parts.at(i) };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(part))) {
                panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
            }
        };
        let job: &(dyn Fn() + Sync) = &claim;
        // SAFETY: only the lifetime changes. The job is withdrawn below, and
        // `run` waits for every worker that took it to leave before `claim`
        // and everything it borrows go out of scope.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
                job,
            )
        });
        let parked = {
            let mut state = lock(&shared.state);
            state.job = Some(job);
            shared.epoch.fetch_add(1, Ordering::Release);
            state.parked > 0
        };
        if parked {
            shared.wake.notify_all();
        }
        claim();
        lock(&shared.state).job = None;
        // No worker can join the call now; wait for those inside to leave.
        // Each leaves with a `Release` decrement, which these `Acquire`
        // loads pair with, so its writes to its parts are visible here.
        if spin_while(|| shared.inside.load(Ordering::Acquire) > 0) {
            let mut state = lock(&shared.state);
            state.waiting = true;
            while shared.inside.load(Ordering::Acquire) > 0 {
                state = shared.left.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting = false;
        }
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// The running crew, started on first use: `width − 1` threads. A
    /// thread that fails to start narrows the pool instead of failing the
    /// call.
    fn crew(&mut self) -> &Crew {
        if self.crew.is_none() {
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    job: None,
                    parked: 0,
                    waiting: false,
                    shutdown: false,
                    #[cfg(test)]
                    held: false,
                }),
                epoch: AtomicU64::new(0),
                inside: AtomicUsize::new(0),
                wake: Condvar::new(),
                left: Condvar::new(),
            });
            let threads: Vec<_> = (1..self.width())
                .map_while(|i| {
                    let shared = Arc::clone(&shared);
                    let name = format!("sushi-tensor-{i}");
                    thread::Builder::new().name(name).spawn(move || work(&shared)).ok()
                })
                .collect();
            self.width = Some(threads.len() + 1);
            self.crew = Some(Crew { shared, threads });
        }
        self.crew.as_ref().expect("started above")
    }
}

/// A worker thread's life: wait for a call it has not joined (spinning a
/// while, then parked), run its claim loop, leave, until shutdown.
fn work(shared: &Shared) {
    let mut seen = 0;
    loop {
        spin_while(|| shared.epoch.load(Ordering::Acquire) == seen);
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                let epoch = shared.epoch.load(Ordering::Relaxed);
                if epoch != seen {
                    seen = epoch;
                    #[cfg(test)]
                    let job = state.job.filter(|_| !state.held);
                    #[cfg(not(test))]
                    let job = state.job;
                    if let Some(job) = job {
                        shared.inside.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                }
                state.parked += 1;
                state = shared.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
        };
        // SAFETY: `run` keeps the claim loop alive until `inside` is back
        // to zero, and the loop catches every panic of its parts.
        unsafe { (*job.0)() };
        let state = lock(&shared.state);
        if shared.inside.fetch_sub(1, Ordering::Release) == 1 && state.waiting {
            shared.left.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(crew) = self.crew.take() {
            {
                let mut state = lock(&crew.shared.state);
                state.shutdown = true;
                crew.shared.epoch.fetch_add(1, Ordering::Release);
            }
            crew.shared.wake.notify_all();
            for thread in crew.threads {
                // A worker never unwinds: parts' panics are caught.
                let _ = thread.join();
            }
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.width)
            .field("threads", &self.crew.as_ref().map_or(0, |c| c.threads.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every part runs exactly once and writes only its own slice, at
    /// every width and for more, as many and fewer parts than the width.
    #[test]
    fn every_part_runs_once_on_its_own_slice() {
        for width in 1..=4 {
            let mut pool = Pool::with_width(width);
            for parts in [1, 2, width, 3 * width + 1] {
                let mut data = vec![0u32; parts * 5];
                let mut slices: Vec<(usize, &mut [u32])> = data.chunks_mut(5).enumerate().collect();
                pool.run(&mut slices, |(i, s)| {
                    for v in s.iter_mut() {
                        *v += *i as u32 + 1;
                    }
                });
                let want: Vec<u32> = (0..parts).flat_map(|i| [i as u32 + 1; 5]).collect();
                assert_eq!(data, want, "width {width}, {parts} parts");
            }
        }
    }

    /// A worker that does not join a call costs the call nothing: with
    /// every worker held out, the caller runs all the parts itself and
    /// returns. Released, the workers take parts again.
    #[test]
    fn caller_finishes_alone_while_workers_are_held() {
        let me = thread::current().id();
        for width in 2..=4 {
            let mut pool = Pool::with_width(width);
            let shared = Arc::clone(&pool.crew().shared);
            lock(&shared.state).held = true;
            let mut ran_on = vec![None; 3 * width];
            pool.run(&mut ran_on, |slot| *slot = Some(thread::current().id()));
            assert!(ran_on.iter().all(|&t| t == Some(me)), "width {width}: {ran_on:?}");
            lock(&shared.state).held = false;
            let helped = (0..50).any(|_| {
                let mut ran_on = vec![None; 4 * width];
                pool.run(&mut ran_on, |slot| {
                    thread::sleep(std::time::Duration::from_millis(1));
                    *slot = Some(thread::current().id());
                });
                ran_on.iter().any(|&t| t != Some(me))
            });
            assert!(helped, "width {width}: released workers never took a part");
        }
    }

    /// A panicking part resumes on the caller once the call has drained
    /// (no part is still running when `run` unwinds), and the next call on
    /// the same pool runs normally.
    #[test]
    fn a_panicking_part_resumes_on_the_caller_and_the_pool_survives() {
        for width in 1..=4 {
            let mut pool = Pool::with_width(width);
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut parts: Vec<usize> = (0..6).collect();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(&mut parts, |i| {
                    started.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(std::time::Duration::from_millis(2));
                    finished.fetch_add(1, Ordering::Relaxed);
                    assert!(*i != 3, "part three fails");
                });
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"part three fails"), "width {width}");
            let (started, finished) = (started.into_inner(), finished.into_inner());
            assert_eq!(started, finished, "width {width}: a part outlived the call");
            let mut sums = vec![0u64; 9];
            pool.run(&mut sums, |s| *s = 7);
            assert!(sums.iter().all(|&s| s == 7), "width {width}");
        }
    }

    /// Threads this process runs now, from `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }

    /// Dropping an arena joins its pool's workers. Other tests run beside
    /// this one and start and stop threads of their own, so the check
    /// retries a few times before it fails.
    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_an_arena_joins_its_workers() {
        for width in 2..=4 {
            let settled = (0..20).any(|_| {
                let before = process_threads();
                let mut arena = crate::Arena::with_width(width);
                let mut parts = vec![0u8; width];
                arena.pool().run(&mut parts, |p| *p = 1);
                let during = process_threads();
                drop(arena);
                let after = process_threads();
                during >= before + width - 1 && after == before
            });
            assert!(settled, "width {width}: workers outlived their arena");
        }
    }
}
