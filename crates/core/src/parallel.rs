//! A dependency-free parallel map built on [`std::thread::scope`].
//!
//! The vendored dependency set is fixed (no rayon in the build environment),
//! but the experiment layer has several embarrassingly parallel sweeps — the
//! per-`k` full-DCA/refinement sweep behind Figures 4a/8, and the
//! `all_experiments` harness that regenerates every table. [`parallel_map`]
//! covers exactly that shape: run one closure per item on a small scoped
//! worker pool and return the results in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Apply `f` to every item of `items` on up to
/// [`std::thread::available_parallelism`] scoped worker threads, returning
/// the results in input order.
///
/// Work is claimed dynamically (one atomic fetch-add per item), so uneven
/// per-item costs — e.g. DCA runs whose sample size grows with `1/k` — still
/// balance. With zero or one item, or on a single-core machine, `f` runs on
/// the calling thread. `f` must be [`Sync`] because multiple workers share
/// it; per-item mutable state (scratch buffers, RNGs) belongs inside `f`.
///
/// # Panics
/// Propagates the panic of any worker once all threads have been joined.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    // Inline fast path: zero or one item never needs a thread, and with one
    // available worker spawning would only add scope overhead. The worker
    // count is additionally capped at the item count so tiny inputs (e.g. a
    // two-shard dataset on a 16-core machine) never spawn idle threads.
    let workers = worker_count(n);
    // One relaxed increment per sweep (not per item): sweeps are shard-or
    // coarser grained, so this is invisible next to the spawned work. The
    // handle is resolved once per process, keeping the registry lock off the
    // sweep path entirely.
    static SWEEPS: OnceLock<std::sync::Arc<crate::obs::Counter>> = OnceLock::new();
    SWEEPS
        .get_or_init(|| crate::obs::counter("fair_parallel_sweeps_total", &[]))
        .inc();
    if n <= 1 || workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Carry the caller's per-job profile handle (if any) into the pool: a
    // shard paged in by a worker thread is still this job's page-in time.
    // The inline path above runs on the calling thread, where the handle is
    // already installed.
    let profile = crate::obs::profile::current();
    std::thread::scope(|scope| {
        let (next, slots, f) = (&next, &slots, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let profile = profile.clone();
                scope.spawn(move || {
                    let _profile_guard = profile.map(crate::obs::profile::install);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = f(&items[i]);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        // Join here rather than at the end of the scope: the scope would
        // replace a worker's panic payload with its own message.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// The worker-pool ceiling every [`parallel_map`] call (and anything else
/// sizing a pool off this crate, e.g. the `fair-serve` request workers)
/// respects: the `FAIR_THREADS` environment variable when set to a positive
/// integer, [`std::thread::available_parallelism`] otherwise. Service
/// deployments use the override to pin CPU usage — e.g. `FAIR_THREADS=2` on
/// a box shared with other tenants.
#[must_use]
pub fn max_workers() -> usize {
    thread_override(std::env::var("FAIR_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parse a `FAIR_THREADS` value: a positive integer caps the pool; anything
/// else (unset, empty, `0`, garbage) falls back to the hardware count.
fn thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
}

/// Number of scoped workers [`parallel_map`] spawns for `items` work items:
/// [`max_workers`] (the `FAIR_THREADS`-overridable machine parallelism),
/// capped at the item count (an item can occupy at most one worker, so extra
/// threads would only idle).
fn worker_count(items: usize) -> usize {
    max_workers().min(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let items: Vec<usize> = (0..257).collect();
        let counter = AtomicUsize::new(0);
        let out = parallel_map(&items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn single_item_runs_inline_on_the_calling_thread() {
        // An inline run executes `f` on the caller's thread; a spawned worker
        // would observe a different thread id.
        let caller = std::thread::current().id();
        let ids = parallel_map(&[()], |()| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        let empty: Vec<()> = Vec::new();
        assert!(parallel_map(&empty, |()| std::thread::current().id()).is_empty());
    }

    #[test]
    fn worker_count_is_capped_at_the_item_count() {
        let ceiling = max_workers();
        assert_eq!(worker_count(0), 0);
        assert_eq!(worker_count(1), 1);
        assert_eq!(
            worker_count(2),
            ceiling.min(2),
            "never more workers than items"
        );
        assert_eq!(
            worker_count(1_000_000),
            ceiling,
            "never more workers than the ceiling"
        );
    }

    #[test]
    fn fair_threads_override_parses_strictly() {
        assert_eq!(thread_override(None), None);
        assert_eq!(thread_override(Some("")), None);
        assert_eq!(thread_override(Some("0")), None, "zero falls back");
        assert_eq!(thread_override(Some("not-a-number")), None);
        assert_eq!(thread_override(Some("-3")), None);
        assert_eq!(thread_override(Some("1")), Some(1));
        assert_eq!(thread_override(Some(" 6 ")), Some(6), "whitespace trimmed");
    }

    #[test]
    fn max_workers_respects_the_environment() {
        // max_workers reads FAIR_THREADS; with the variable unset it must be
        // the hardware parallelism, with it set (CI pins it in one matrix
        // pass) it must be exactly the override. Read-only, so this cannot
        // race with other tests using the pool.
        let hardware = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        match thread_override(std::env::var("FAIR_THREADS").ok().as_deref()) {
            None => assert_eq!(max_workers(), hardware),
            Some(v) => assert_eq!(max_workers(), v),
        }
        assert!(max_workers() > 0);
    }

    #[test]
    fn fair_threads_pins_the_pool_in_a_child_process() {
        // Spawn this test binary once more with FAIR_THREADS=1, filtered to
        // the helper test below that prints the resolved worker ceiling — an
        // end-to-end check of the override without racing the parent
        // process's environment.
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args([
                "parallel::tests::print_max_workers_for_child",
                "--exact",
                "--nocapture",
            ])
            .env("FAIR_THREADS", "1")
            .output()
            .expect("spawn child test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("max_workers=1"),
            "child with FAIR_THREADS=1 must report a pool of 1, got:\n{stdout}"
        );
    }

    #[test]
    fn print_max_workers_for_child() {
        // Helper for `fair_threads_pins_the_pool_in_a_child_process`: prints
        // the resolved ceiling so the parent can assert on it. Harmless when
        // run directly (it just prints the current value).
        println!("max_workers={}", max_workers());
    }

    #[test]
    fn installed_profile_propagates_into_pool_workers() {
        use crate::obs::profile::{self, Phase};
        let p = crate::obs::JobProfile::new();
        let _g = profile::install(p.clone());
        let items: Vec<usize> = (0..64).collect();
        let _ = parallel_map(&items, |&i| {
            let _s = profile::scope(Phase::Decode);
            std::hint::black_box(i)
        });
        assert_eq!(
            p.stats()[Phase::Decode as usize].count,
            64,
            "every worker-side scope lands in the caller's profile"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        let _ = parallel_map(&items, |&i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
