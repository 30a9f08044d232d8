//! The machine's idle cores, one count per process.
//!
//! Three kinds of work can spread over spare cores without moving a
//! result: a real-mode round's gradients (`dlrover_pstrain::real`), a
//! chaos job's fault-free reference run (`dlrover_rm::chaos`) and a fleet
//! shard's lanes (`dlrover_cluster::shard`). All take their helpers' cores
//! from the one count [`idle_cores`] returns, and the `exp` unit pool's
//! workers count their own cores in it while they compute
//! ([`Cores::counted`]), so work running side by side (the pool's units, a
//! round beside a chaos job) splits the machine instead of each spawning
//! helpers for all of it. When no core is idle, the work runs on its
//! caller's thread alone.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ptr;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::OnceLock;

/// Cores no caller is computing on, shared by every user in the process.
/// Set on first use to `available_parallelism()`, which reads cgroup files
/// (~12 µs, more than a trainer's whole construction); below zero while
/// more callers compute than there are cores.
pub fn idle_cores() -> &'static AtomicIsize {
    static IDLE: OnceLock<AtomicIsize> = OnceLock::new();
    IDLE.get_or_init(|| {
        AtomicIsize::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get) as isize)
    })
}

thread_local! {
    /// The pool this thread's core is counted in by an enclosing
    /// [`Cores::counted`]; null outside one.
    static COUNTED_IN: Cell<*const AtomicIsize> = const { Cell::new(ptr::null()) };
}

/// The cores one caller runs on: its own for as long as it holds this,
/// its helpers' while they compute. Dropping it gives back what it holds.
#[derive(Debug)]
pub struct Cores {
    /// Idle cores taken for helper threads.
    helpers: usize,
    /// Whether this holds the caller's own core; not inside
    /// [`Cores::counted`] on the same pool, which holds it already.
    own: bool,
    pool: &'static AtomicIsize,
}

impl Cores {
    /// Takes the caller's core, even when none is idle (a computing caller
    /// counts against every other caller's helpers), and up to `slots - 1`
    /// idle ones for helpers. Inside [`Cores::counted`] on the same pool
    /// the caller's core is counted already and only helpers are taken.
    pub fn take(pool: &'static AtomicIsize, slots: usize) -> Cores {
        let own = COUNTED_IN.get() != ptr::from_ref(pool);
        let helpers = |idle: isize| (idle - isize::from(own)).clamp(0, slots as isize - 1);
        let before = pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
                Some(idle - isize::from(own) - helpers(idle))
            })
            .unwrap_or_else(|idle| idle);
        Cores { helpers: helpers(before) as usize, own, pool }
    }

    /// Runs `work` with the calling thread's core counted in `pool`, as
    /// the `exp` unit pool's workers do while they compute: whatever
    /// `work` takes from `pool` on this thread is helpers only.
    pub fn counted<R>(pool: &'static AtomicIsize, work: impl FnOnce() -> R) -> R {
        /// Puts back the thread's previous mark, also when `work` panics.
        struct Restore(*const AtomicIsize);
        impl Drop for Restore {
            fn drop(&mut self) {
                COUNTED_IN.set(self.0);
            }
        }
        let _own = Cores::take(pool, 1);
        let _restore = Restore(COUNTED_IN.replace(ptr::from_ref(pool)));
        work()
    }

    /// Threads to compute on: the caller's and its helpers'.
    pub fn threads(&self) -> usize {
        1 + self.helpers
    }

    /// Gives the helpers' cores back and keeps the caller's.
    pub fn release_helpers(&mut self) {
        self.pool.fetch_add(self.helpers as isize, Ordering::Relaxed);
        self.helpers = 0;
    }

    /// Runs `work` over `items` cut into contiguous runs, one per thread:
    /// run 0 on the caller's thread, each other run on a scoped helper,
    /// with its index. Then gives the helpers' cores back and keeps the
    /// caller's; returns the number of runs. A panic in any run reaches
    /// the caller.
    pub fn split<T: Send>(
        &mut self,
        items: &mut [T],
        work: impl Fn(usize, &mut [T]) + Sync,
    ) -> usize {
        let per = items.len().div_ceil(self.threads().min(items.len()).max(1));
        let runs = items.len().div_ceil(per.max(1)).max(1);
        if runs == 1 {
            work(0, items);
        } else {
            let mut chunks = items.chunks_mut(per).enumerate();
            let (_, own) = chunks.next().expect("two runs or more");
            let work = &work;
            std::thread::scope(|scope| {
                for (run, chunk) in chunks {
                    scope.spawn(move || work(run, chunk));
                }
                work(0, own);
            });
        }
        self.release_helpers();
        runs
    }

    /// Runs `main` on the caller's thread and `side` beside it on a helper,
    /// whose core goes back as soon as `side` returns; without a helper
    /// (take these for two slots), `side` runs first on the caller's
    /// thread. Returns both outputs; a panic in either reaches the caller.
    pub fn beside<S: Send, M>(
        mut self,
        side: impl FnOnce() -> S + Send,
        main: impl FnOnce() -> M,
    ) -> (S, M) {
        if self.helpers == 0 {
            return (side(), main());
        }
        let helpers = Cores { helpers: self.helpers, own: false, pool: self.pool };
        self.helpers = 0;
        std::thread::scope(|scope| {
            let side = scope.spawn(move || {
                let out = side();
                drop(helpers);
                out
            });
            let main = main();
            (side.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), main)
        })
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        self.pool.fetch_add(self.helpers as isize + isize::from(self.own), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds computing side by side split the machine: a round always
    /// has its own core, takes helpers only from idle ones, gives the
    /// helpers back after its join and its own core at its end.
    #[test]
    fn side_by_side_rounds_share_the_idle_cores() {
        static POOL: AtomicIsize = AtomicIsize::new(2);
        let idle = || POOL.load(Ordering::Relaxed);
        let mut first = Cores::take(&POOL, 3);
        assert_eq!((first.threads(), idle()), (2, 0));
        let second = Cores::take(&POOL, 3);
        assert_eq!((second.threads(), idle()), (1, -1));
        first.release_helpers();
        assert_eq!((first.threads(), idle()), (1, 0), "the first round's apply still runs");
        drop(first);
        assert_eq!(idle(), 1);
        let third = Cores::take(&POOL, 3);
        assert_eq!((third.threads(), idle()), (1, 0), "the second round still holds its core");
        drop((second, third));
        let single = Cores::take(&POOL, 1);
        assert_eq!((single.threads(), idle()), (1, 1), "one slot wants no helper");
        drop(single);
        assert_eq!(idle(), 2);
    }

    /// Where `side` ran, and how many cores were idle while it ran.
    fn run_beside(cores: Cores, pool: &AtomicIsize) -> (bool, isize) {
        let caller = std::thread::current().id();
        let (side, ()) = cores.beside(
            || (std::thread::current().id() != caller, pool.load(Ordering::Relaxed)),
            || {},
        );
        side
    }

    /// A chaos job's reference run on a two-core machine: while a real-mode
    /// round holds both cores, a job started meanwhile runs its reference
    /// inline; once the round gives them back, the same job gets a helper,
    /// which returns its core when the reference is done.
    #[test]
    fn a_reference_run_gets_a_helper_only_once_a_round_releases_the_cores() {
        static POOL: AtomicIsize = AtomicIsize::new(2);
        let idle = || POOL.load(Ordering::Relaxed);
        let round = Cores::take(&POOL, 4);
        assert_eq!((round.threads(), idle()), (2, 0), "the round holds both cores");
        let job = Cores::take(&POOL, 2);
        assert_eq!(job.threads(), 1);
        assert_eq!(run_beside(job, &POOL), (false, -1), "inline, on the job's own core");
        assert_eq!(idle(), 0);
        drop(round);
        let job = Cores::take(&POOL, 2);
        assert_eq!((job.threads(), idle()), (2, 0));
        assert_eq!(run_beside(job, &POOL), (true, 0), "on a helper");
        assert_eq!(idle(), 2, "the helper's core and the job's both went back");
    }

    /// `side`'s panic reaches the caller after `main` has run, and the
    /// cores still go back.
    #[test]
    fn a_panic_beside_reaches_the_caller() {
        static POOL: AtomicIsize = AtomicIsize::new(2);
        let mut main_ran = false;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Cores::take(&POOL, 2).beside(|| panic!("side"), || main_ran = true)
        }));
        assert!(caught.is_err());
        assert!(main_ran);
        assert_eq!(POOL.load(Ordering::Relaxed), 2);
    }

    /// `split` cuts the items into contiguous runs that cover each once,
    /// runs the first on the caller's thread and the others on helpers,
    /// then gives the helpers' cores back and keeps the caller's.
    #[test]
    fn split_runs_contiguous_runs_and_returns_the_helpers() {
        static POOL: AtomicIsize = AtomicIsize::new(3);
        let idle = || POOL.load(Ordering::Relaxed);
        let caller = std::thread::current().id();
        let mut items = [(usize::MAX, false); 7];
        let mut cores = Cores::take(&POOL, 8);
        assert_eq!((cores.threads(), idle()), (3, 0));
        let runs = cores.split(&mut items, |run, chunk| {
            let on_caller = std::thread::current().id() == caller;
            chunk.iter_mut().for_each(|item| *item = (run, on_caller));
        });
        assert_eq!(runs, 3);
        let run_of: Vec<usize> = items.iter().map(|&(run, _)| run).collect();
        assert_eq!(run_of, [0, 0, 0, 1, 1, 1, 2]);
        assert!(items.iter().all(|&(run, on_caller)| on_caller == (run == 0)));
        assert_eq!((cores.threads(), idle()), (1, 2));
        assert_eq!(cores.split(&mut items[..1], |run, _| assert_eq!(run, 0)), 1);
        drop(cores);
        assert_eq!(idle(), 3);
    }

    /// A thread inside `counted` is counted once: its own takes, and a
    /// `counted` nested in it, take helpers only; a panic still puts the
    /// core back.
    #[test]
    fn a_counted_thread_takes_only_helpers() {
        static POOL: AtomicIsize = AtomicIsize::new(2);
        let idle = || POOL.load(Ordering::Relaxed);
        Cores::counted(&POOL, || {
            assert_eq!(idle(), 1);
            let cores = Cores::take(&POOL, 3);
            assert_eq!((cores.threads(), idle()), (2, 0), "the caller's core is counted once");
            drop(cores);
            Cores::counted(&POOL, || assert_eq!(idle(), 1));
            assert_eq!(idle(), 1);
        });
        assert_eq!(idle(), 2);
        let caught = std::panic::catch_unwind(|| Cores::counted(&POOL, || panic!("unit")));
        assert!(caught.is_err());
        let cores = Cores::take(&POOL, 1);
        assert_eq!(idle(), 1, "outside `counted`, the caller's core is taken again");
        drop(cores);
        assert_eq!(idle(), 2);
    }
}
