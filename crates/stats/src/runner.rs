//! Deterministic parallel Monte-Carlo campaigns.
//!
//! Jobs are claimed one at a time: every worker takes the next unclaimed
//! index from one shared queue and writes its result into that job's
//! slot, and the calling thread is one of the workers. A worker that
//! draws cheap jobs simply claims more of them, so no worker idles while
//! another still holds a backlog — a sweep whose expensive points sit at
//! one end (the high-BER tail of Figs. 6-7) keeps every worker busy to
//! the last job. Results stay indexed by job, so the output is the same
//! for every thread count.

use std::sync::Mutex;

/// Resolves a worker count: `0` picks the available parallelism, and no
/// more workers than `jobs` are ever used (at least one).
fn worker_count(threads: usize, jobs: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    threads.min(jobs).max(1)
}

/// Calls `f(i, &mut items[i])` once for every item, on up to `threads`
/// workers (`0` = the available parallelism) that each claim the next
/// unclaimed item until none is left.
///
/// The calling thread is one of the workers, so at most `threads − 1`
/// scoped threads are spawned, and none when one worker suffices. Which
/// worker runs an item never matters to the caller: each call sees only
/// its own item. A panic in `f` propagates to the caller once every
/// worker has stopped.
///
/// # Examples
///
/// ```
/// use btsim_stats::for_each_claimed;
///
/// let mut squares = vec![0u64; 10];
/// for_each_claimed(&mut squares, 2, |i, s| *s = (i * i) as u64);
/// assert_eq!(squares[9], 81);
/// ```
pub fn for_each_claimed<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = worker_count(threads, items.len());
    if workers == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    let work = || loop {
        // The guard is dropped at the end of this statement, so `f` runs
        // unlocked and a panicking job cannot poison the queue.
        let next = queue.lock().expect("claim queue").next();
        match next {
            Some((i, item)) => f(i, item),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Runs `n_runs` independent simulations in parallel and collects their
/// results in seed order.
///
/// Each run receives a distinct seed `base_seed + i`; results are
/// returned indexed by `i` regardless of which worker ran them, so a
/// campaign is bit-reproducible for a fixed `base_seed`. Workers claim
/// runs one at a time ([`for_each_claimed`]).
///
/// `threads = 0` picks the available parallelism.
///
/// # Examples
///
/// ```
/// use btsim_stats::run_campaign;
///
/// let results = run_campaign(100, 0, 42, |seed| seed % 7);
/// assert_eq!(results.len(), 100);
/// assert_eq!(results[3], (42 + 3) % 7);
/// ```
pub fn run_campaign<T, F>(n_runs: usize, threads: usize, base_seed: u64, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n_runs).map(|_| None).collect();
    for_each_claimed(&mut slots, threads, |i, slot| {
        *slot = Some(run(base_seed.wrapping_add(i as u64)));
    });
    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn results_are_in_seed_order() {
        let r = run_campaign(64, 4, 1000, |seed| seed);
        let expect: Vec<u64> = (1000..1064).collect();
        assert_eq!(r, expect);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |seed: u64| seed.wrapping_mul(6364136223846793005).rotate_left(17);
        let seq = run_campaign(41, 1, 7, f);
        let par = run_campaign(41, 8, 7, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_runs() {
        let r = run_campaign(0, 4, 0, |s| s);
        assert!(r.is_empty());
    }

    #[test]
    fn single_run() {
        let r = run_campaign(1, 8, 5, |s| s * 2);
        assert_eq!(r, vec![10]);
    }

    #[test]
    fn auto_thread_count() {
        let r = run_campaign(10, 0, 0, |s| s);
        assert_eq!(r.len(), 10);
    }

    /// A slow job must not hold back the jobs after it: with 2 workers
    /// and 8 jobs, job 0 waits (at most 5 s) for jobs 1-7, which the
    /// other worker can only all run if jobs are claimed one at a time.
    /// Fixed contiguous chunks would queue jobs 1-3 behind job 0.
    #[test]
    fn a_slow_job_does_not_hold_back_later_jobs() {
        let finished = AtomicUsize::new(0);
        let r = run_campaign(8, 2, 0, |seed| {
            if seed != 0 {
                finished.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while finished.load(Ordering::SeqCst) < 7 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            finished.load(Ordering::SeqCst) == 7
        });
        assert!(r[0], "jobs 1-7 waited behind job 0");
    }

    #[test]
    fn every_job_runs_exactly_once() {
        for n in [0, 1, 2, 7, 64] {
            for threads in [1, 2, 3, 8] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let r = run_campaign(n, threads, 0, |seed| {
                    calls[seed as usize].fetch_add(1, Ordering::SeqCst);
                    seed
                });
                assert_eq!(r, (0..n as u64).collect::<Vec<_>>());
                for (i, c) in calls.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::SeqCst),
                        1,
                        "job {i}, n {n}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_panics_the_campaign() {
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                run_campaign(8, threads, 0, |seed| {
                    assert_ne!(seed, 5, "job 5 fails");
                    seed
                })
            });
            assert!(caught.is_err(), "{threads} threads");
        }
    }
}
