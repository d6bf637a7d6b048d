//! Parallel Monte-Carlo driver.
//!
//! Trials are split across threads with `std::thread::scope`; each
//! trial gets a seed derived purely from `(master, trial index)`, so the
//! result multiset is independent of the thread count and schedule.
//!
//! Two granularities: [`monte_carlo`] hands one seed at a time to the
//! trial closure (rebuilding per-trial state from scratch), while
//! [`monte_carlo_batched`] hands out contiguous *chunks* of seeds so the
//! closure can run them through one `od_core::ReplicaBatch` — a shared
//! CSR graph and structure-of-arrays values instead of per-trial setup.
//! Because trial `i` always receives `seeds.seed(i)`, results are
//! identical (not merely equal as multisets) across thread counts AND
//! batch sizes, and `monte_carlo_batched(.., 1, ..)` degenerates to
//! [`monte_carlo`].

use od_stats::{SeedSequence, Welford};
use std::sync::{Mutex, PoisonError};

/// Runs `trials` independent trials of `f` (given the per-trial seed) in
/// parallel, returning all results in trial order.
///
/// One-trial-per-chunk specialisation of [`monte_carlo_batched`] — a
/// single scheduler serves both entry points.
pub fn monte_carlo<T, F>(trials: usize, seeds: SeedSequence, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    monte_carlo_batched(trials, seeds, 1, |_, chunk| {
        chunk.iter().map(|&seed| f(seed)).collect()
    })
}

/// Runs `trials` trials in parallel, `batch` at a time: the closure
/// receives the index of the chunk's first trial plus the chunk's
/// per-trial seeds, and returns one result per seed (in seed order).
/// Results come back in trial order.
///
/// The intended consumer builds an `od_core::ReplicaBatch` (or
/// `VoterBatch`) from the seed slice — one replica per trial — and reads
/// one result per replica off it. Worker count is
/// `std::thread::available_parallelism()`; use
/// [`monte_carlo_batched_threads`] for an explicit cap.
///
/// # Panics
///
/// Panics if `batch == 0` or if `f` returns a result count different from
/// the seed count it was given.
pub fn monte_carlo_batched<T, F>(trials: usize, seeds: SeedSequence, batch: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[u64]) -> Vec<T> + Sync,
{
    monte_carlo_batched_threads(trials, seeds, batch, 0, |start, chunk, _| f(start, chunk))
}

/// [`monte_carlo_batched`] with an explicit thread budget (`0` =
/// available parallelism) — the scenario dispatcher routes its `threads`
/// knob here. The chunks run side by side on up to `budget` threads, and
/// `f` gets each chunk's share of the budget, `budget / chunks` (at
/// least 1), as its third argument, for the chunk's own workers.
/// Results are identical for every thread count.
///
/// # Panics
///
/// The same as [`monte_carlo_batched`].
pub fn monte_carlo_batched_threads<T, F>(
    trials: usize,
    seeds: SeedSequence,
    batch: usize,
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[u64], usize) -> Vec<T> + Sync,
{
    assert!(batch > 0, "batch size must be positive");
    let chunks = trials.div_ceil(batch);
    let budget = od_core::resolve_threads(threads);
    let share = (budget / chunks.max(1)).max(1);
    let threads = budget.min(chunks.max(1));
    let results: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(chunks));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let results = &results;
            let f = &f;
            let seeds = &seeds;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut chunk = worker;
                while chunk < chunks {
                    let start = chunk * batch;
                    let end = (start + batch).min(trials);
                    let chunk_seeds: Vec<u64> =
                        (start..end).map(|i| seeds.seed(i as u64)).collect();
                    let out = f(start, &chunk_seeds, share);
                    assert_eq!(
                        out.len(),
                        chunk_seeds.len(),
                        "batched trial fn returned {} results for {} seeds",
                        out.len(),
                        chunk_seeds.len()
                    );
                    local.push((start, out));
                    chunk += threads;
                }
                // Poison recovery is sound here: a panicking trial
                // closure never holds the lock, and `thread::scope`
                // re-raises any worker panic before results are read —
                // recovering the guard can't surface a partial run.
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let mut collected = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    collected.sort_by_key(|(start, _)| *start);
    collected.into_iter().flat_map(|(_, out)| out).collect()
}

/// Runs trials and folds the `f64` results into a single Welford
/// accumulator.
pub fn monte_carlo_stats<F>(trials: usize, seeds: SeedSequence, f: F) -> Welford
where
    F: Fn(u64) -> f64 + Sync,
{
    monte_carlo(trials, seeds, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let seeds = SeedSequence::new(42);
        let a = monte_carlo(100, seeds, |s| s.wrapping_mul(3));
        let b = monte_carlo(100, seeds, |s| s.wrapping_mul(3));
        assert_eq!(a, b);
    }

    #[test]
    fn results_in_trial_order() {
        let seeds = SeedSequence::new(1);
        let idx = monte_carlo(64, seeds, |_| ());
        assert_eq!(idx.len(), 64);
        // Trial order is checked through seeds: f receives seed(i), so
        // reconstruct and compare.
        let vals = monte_carlo(64, seeds, |s| s);
        let expected: Vec<u64> = (0..64).map(|i| seeds.seed(i)).collect();
        assert_eq!(vals, expected);
    }

    #[test]
    fn stats_match_sequential_fold() {
        let seeds = SeedSequence::new(7);
        let w = monte_carlo_stats(500, seeds, |s| (s % 1000) as f64);
        let mut seq = Welford::new();
        for i in 0..500 {
            seq.push((seeds.seed(i) % 1000) as f64);
        }
        assert_eq!(w.count(), seq.count());
        assert!((w.mean().unwrap() - seq.mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn single_trial_ok() {
        let seeds = SeedSequence::new(9);
        let v = monte_carlo(1, seeds, |s| s);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn batched_results_independent_of_batch_size() {
        let seeds = SeedSequence::new(13);
        let scalar = monte_carlo(97, seeds, |s| s.wrapping_mul(7));
        for batch in [1usize, 3, 8, 32, 97, 200] {
            let batched = monte_carlo_batched(97, seeds, batch, |_, chunk| {
                chunk.iter().map(|s| s.wrapping_mul(7)).collect()
            });
            assert_eq!(batched, scalar, "batch size {batch}");
        }
    }

    #[test]
    fn batched_threads_results_independent_of_thread_count() {
        let seeds = SeedSequence::new(31);
        let f = |_: usize, chunk: &[u64]| -> Vec<u64> { chunk.iter().map(|s| s ^ 5).collect() };
        let reference = monte_carlo_batched(40, seeds, 4, f);
        for threads in [1usize, 2, 7, 64] {
            let got = monte_carlo_batched_threads(40, seeds, 4, threads, |s, c, _| f(s, c));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn chunks_split_the_thread_budget() {
        let seeds = SeedSequence::new(3);
        // (trials, batch, budget) -> each chunk's share: budget / chunks,
        // never below one thread.
        for (trials, batch, budget, share) in [
            (4, 16, 8, 8),
            (12, 4, 25, 8),
            (40, 4, 64, 6),
            (40, 4, 7, 1),
            (5, 1, 1, 1),
        ] {
            let got = monte_carlo_batched_threads(trials, seeds, batch, budget, |_, c, t| {
                vec![t; c.len()]
            });
            assert_eq!(got, vec![share; trials], "{trials}/{batch} on {budget}");
        }
    }

    #[test]
    fn batched_chunk_starts_are_trial_indices() {
        let seeds = SeedSequence::new(21);
        // Return (start + offset) so reassembly order is fully checked.
        let out = monte_carlo_batched(50, seeds, 7, |start, chunk| {
            (0..chunk.len()).map(|i| start + i).collect()
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn batched_zero_batch_panics() {
        monte_carlo_batched(10, SeedSequence::new(1), 0, |_, chunk| {
            vec![(); chunk.len()]
        });
    }

    #[test]
    // The result-count assertion fires inside a worker; `thread::scope`
    // re-raises it as its own panic on join.
    #[should_panic(expected = "scoped thread panicked")]
    fn batched_wrong_result_count_panics() {
        monte_carlo_batched(10, SeedSequence::new(1), 4, |_, _| vec![()]);
    }
}
