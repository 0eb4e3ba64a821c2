//! The one data-parallel fan-out: scoped threads that claim items from
//! one shared iterator.
//!
//! GTFock runs a node's threads inside one process (the hybrid
//! MPI/OpenMP style); this is that intra-process "parallel for", written
//! once for every data-parallel loop in the workspace (rank and executor
//! threads excepted). It has one execution shape: asked for one thread,
//! [`claim`] runs inline on the caller; asked for more, it spawns up to
//! that many workers — no more than the iterator can feed — and the
//! caller only joins them.

use std::sync::Mutex;

/// Threads to fan out to: the host's logical cores.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work(&mut state, item)` once for every item of `items`, on
/// `threads` workers that each start from `init()` and claim items one at
/// a time, and returns the workers' states (at least one) for the caller
/// to fold. Which worker sees which item varies from run to run, so a
/// fold that must be reproducible has to be order-independent, or
/// ordered by the caller. A worker's panic propagates to the caller.
pub fn claim<I, S, W>(threads: usize, items: I, init: impl Fn() -> S + Sync, work: W) -> Vec<S>
where
    I: Iterator + Send,
    S: Send,
    W: Fn(&mut S, I::Item) + Sync,
{
    if threads <= 1 {
        let mut state = init();
        items.for_each(|item| work(&mut state, item));
        return vec![state];
    }
    let workers = threads.min(items.size_hint().1.unwrap_or(threads)).max(1);
    let queue = Mutex::new(items);
    // The guard drops when `next` returns, before the work.
    let next = || queue.lock().expect("claim lock poisoned").next();
    let worker = || {
        let mut state = init();
        while let Some(item) = next() {
            work(&mut state, item);
        }
        state
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        // Joined, not left to the scope, which detaches its threads: the
        // next spawn then finds a finished thread's stack cached instead
        // of mapping a new one, whose TLS bookkeeping glibc puts on the
        // heap between the large buffers.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// `(0..n).map(f)` on `threads` workers, collected in index order.
pub fn map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let parts = claim(threads, 0..n, Vec::new, |out, i| out.push((i, f(i))));
    let mut all: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn every_item_is_claimed_exactly_once() {
        for n in [0, 1, 7, 1000] {
            for t in 1..=3 {
                let states = claim(t, 0..n, Vec::new, |seen, i| seen.push(i));
                let want = if t == 1 { 1 } else { t.min(n).max(1) };
                assert_eq!(states.len(), want, "workers, n={n} threads={t}");
                let mut seen: Vec<usize> = states.into_iter().flatten().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} threads={t}");
            }
        }
    }

    #[test]
    fn map_is_the_serial_map_in_order() {
        for n in [0, 1, 7, 1000] {
            let want: Vec<u64> = (0..n).map(|i| (i as u64).pow(2) ^ 0x5a).collect();
            for t in 1..=3 {
                assert_eq!(
                    map(t, n, |i| (i as u64).pow(2) ^ 0x5a),
                    want,
                    "n={n} threads={t}"
                );
            }
        }
    }

    #[test]
    fn per_worker_folds_equal_the_serial_fold() {
        let items = || (0..1000u64).map(|i| i * i % 997);
        let (sum, max) = (items().sum::<u64>(), items().max().unwrap());
        for t in 1..=3 {
            let states = claim(
                t,
                items(),
                || (0u64, 0u64),
                |(s, m), x| {
                    *s += x;
                    *m = (*m).max(x);
                },
            );
            let folded = states
                .into_iter()
                .fold((0, 0), |(s, m), (s2, m2)| (s + s2, m.max(m2)));
            assert_eq!(folded, (sum, max), "threads={t}");
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller_and_more_never_do() {
        let caller = thread::current().id();
        let on = |t| {
            claim(t, 0..20, Vec::new, |ids, _| {
                ids.push(thread::current().id())
            })
        };
        assert!(on(1).concat().iter().all(|&id| id == caller));
        for t in [2, 3] {
            assert!(on(t).concat().iter().all(|&id| id != caller), "threads={t}");
        }
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn a_panicking_worker_propagates_its_panic() {
        claim(2, 0..10, || (), |_, i| assert_ne!(i, 3, "item {i}"));
    }
}
