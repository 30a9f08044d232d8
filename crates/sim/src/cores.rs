//! The machine's idle cores, one count per process.
//!
//! Two kinds of work can spread over spare cores without moving a result:
//! a real-mode round's gradients (`dlrover_pstrain::real`) and a chaos
//! job's fault-free reference run (`dlrover_rm::chaos`). Both take their
//! helpers' cores from the one count [`idle_cores`] returns, so work
//! running side by side (the `exp` pool's units, a round beside a chaos
//! job) splits the machine instead of each spawning helpers for all of it.
//! When no core is idle, the work runs on its caller's thread alone.

use std::num::NonZeroUsize;
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

/// The cores one caller runs on: its own for as long as it holds this,
/// its helpers' while they compute. Dropping it gives back what it holds.
#[derive(Debug)]
pub struct Cores {
    /// Threads to compute on: the caller's and its helpers'.
    threads: usize,
    pool: &'static AtomicIsize,
}

impl Cores {
    /// Takes the caller's core, even when none is idle (a computing caller
    /// counts against every other caller's helpers), and up to `slots - 1`
    /// idle ones for helpers.
    pub fn take(pool: &'static AtomicIsize, slots: usize) -> Cores {
        let helpers = |idle: isize| (idle - 1).clamp(0, slots as isize - 1);
        let before = pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
                Some(idle - 1 - helpers(idle))
            })
            .unwrap_or_else(|idle| idle);
        Cores { threads: 1 + helpers(before) as usize, pool }
    }

    /// Threads to compute on: the caller's and its helpers'.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Gives the helpers' cores back and keeps the caller's.
    pub fn release_helpers(&mut self) {
        self.pool.fetch_add(self.threads as isize - 1, Ordering::Relaxed);
        self.threads = 1;
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
        if self.threads == 1 {
            return (side(), main());
        }
        let helpers = Cores { threads: self.threads - 1, pool: self.pool };
        self.threads = 1;
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
        self.pool.fetch_add(self.threads as isize, Ordering::Relaxed);
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
}
