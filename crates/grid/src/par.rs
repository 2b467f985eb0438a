//! Scoped fan-out with an explicit thread count.
//!
//! Every parallel loop in the workspace — row-parallel sweeps, the
//! red-black colour phases, the parallel norms, the partitioned executor's
//! publish and sub-iterate phases, and the engine's batch of cache misses
//! — is one call to [`map`]. The caller says how many threads the call
//! may use; nothing is inherited from the calling thread, so a loop has
//! the same width wherever it runs.
//!
//! [`map`] splits its items into at most `threads` contiguous slabs and
//! forks one scoped thread per slab after the first, which the calling
//! thread runs itself. This is the paper's processor model made literal:
//! each call pays a fixed fork/join overhead (`k(P,S)`) against the useful
//! work its slabs share, so a loop only gains when its work is large
//! against a thread spawn.

use std::sync::OnceLock;

/// The machine's default thread count: `available_parallelism()`, or 1
/// when the platform cannot say. Read once per process.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Applies `f` to every item on at most `threads` threads and returns the
/// results in item order.
///
/// The items are split into contiguous slabs of `⌈len / threads⌉`; the
/// calling thread runs the first slab and one scoped thread runs each of
/// the others. With `threads ≤ 1` or at most one item, everything runs
/// inline on the caller. A panic in any slab panics the caller once every
/// slab has finished, so a `catch_unwind` around the call sees it.
pub fn map<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let mut first: Vec<I::Item> = items.into_iter().collect();
    let len = first.len();
    if threads <= 1 || len <= 1 {
        return first.into_iter().map(f).collect();
    }
    // Cut slabs off the back, so each split moves only the slab it cuts.
    let slab = len.div_ceil(threads);
    let mut rest = Vec::with_capacity(threads - 1);
    while first.len() > slab {
        let at = (first.len() - 1) / slab * slab;
        rest.push(first.split_off(at));
    }
    rest.reverse();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .into_iter()
            .map(|slab| scope.spawn(move || slab.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(len);
        out.extend(first.into_iter().map(f));
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_item_order() {
        for len in [0usize, 1, 2, 7, 13, 101] {
            for threads in [0usize, 1, 2, 3, 4, 16, 200] {
                let out = map(0..len, threads, |x| x * 3 + 1);
                let want: Vec<usize> = (0..len).map(|x| x * 3 + 1).collect();
                assert_eq!(out, want, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn at_most_threads_distinct_threads_do_the_work() {
        for (len, threads) in [(13usize, 1usize), (13, 2), (13, 4), (5, 8), (64, 3)] {
            let seen = Mutex::new(HashSet::<ThreadId>::new());
            map(0..len, threads, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
            let distinct = seen.lock().unwrap().len();
            assert!(distinct >= 1 && distinct <= threads.min(len), "{len}/{threads}: {distinct}");
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = map(0..9, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn work_leaves_the_caller_and_the_caller_runs_the_first_slab() {
        let caller = std::thread::current().id();
        let ids = map(0..8, 2, |_| std::thread::current().id());
        assert!(ids[..4].iter().all(|&id| id == caller), "first slab stays on the caller");
        assert!(ids[4..].iter().all(|&id| id != caller), "second slab runs off the caller");
    }

    #[test]
    fn disjoint_mutable_items_are_written_in_place() {
        let mut v = vec![1i64; 100];
        map(v.chunks_mut(7).enumerate(), 4, |(i, chunk)| chunk.fill(i as i64));
        assert_eq!(v[0], 0);
        assert_eq!(v[99], 14);
        assert!(v.chunks(7).enumerate().all(|(i, c)| c.iter().all(|&x| x == i as i64)));
    }

    #[test]
    fn reductions_over_results_match_sequential() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum: f64 = map(&v, 3, |&x| x).into_iter().sum();
        assert_eq!(sum, 5050.0);
        let max = map(&v, 3, |&x| x).into_iter().fold(0.0, f64::max);
        assert_eq!(max, 100.0);
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for bad in [0usize, 5, 9] {
            let caught = std::panic::catch_unwind(|| {
                map(0..10, 3, |x| {
                    assert!(x != bad, "item {x} failed");
                    x
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert!(msg.contains(&format!("item {bad} failed")), "{msg:?}");
        }
    }

    #[test]
    fn default_is_at_least_one_and_stable() {
        assert!(default_threads() >= 1);
        assert_eq!(default_threads(), default_threads());
    }
}
