//! Per-job phase profiler: "where did *this* job's time go".
//!
//! The metrics registry answers "how much / how often" across the process;
//! this module attributes one job's wall-clock to named [`Phase`]s —
//! `page_in` / `decode` / `score` / `sample` / `combine` / `wire` — so a
//! 4.2-second descent can say which of paging, decoding, scoring, sample
//! gathering, partial combining, or the wire dominated it.
//!
//! Mechanics, in the same discipline as the PR 9 step hook:
//!
//! * A [`JobProfile`] is a pre-sized block of atomics (per-phase
//!   total/count/max plus a fixed ring of the last
//!   [`PROFILE_RING`] per-step breakdowns). Recording is a handful of
//!   relaxed atomic ops — no heap traffic on the hot path.
//! * The profile travels via a **thread-local handle**: the job thread
//!   [`install`]s its profile, [`crate::parallel_map`] re-installs it inside
//!   pool workers, and every instrumented layer (`ShardStore` paging, the
//!   sharded runners, the fleet coordinator) opens a [`PhaseScope`] through
//!   [`scope`]. With no profile installed a scope is a single thread-local
//!   check and records nothing — library callers pay nothing.
//! * Scopes nest: an inner scope's time is subtracted from its enclosing
//!   scope on the same thread (self-time attribution), so a `score` scope
//!   that pages a shard in-line does not double-count the `page_in` time.
//! * The pool workers of a [`crate::parallel_map`] call run at once under
//!   the caller's open scope, so each records `1/workers` of its scopes'
//!   time, and the caller counts their total as nested time of that scope
//!   once they join. A paged sweep under a `score` scope thus splits its
//!   wall time between `page_in`, `decode` and `score`.
//! * Wall-clock stays outside kernels: scopes wrap kernel *invocations*
//!   (a whole gather, a whole shard-sweep evaluate, one decode) and the
//!   clock value never feeds back into any computation, so DCA trajectories
//!   are bit-identical with profiling on — asserted in-test.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of named phases.
pub const NUM_PHASES: usize = 6;

/// Per-step breakdown entries a [`JobProfile`] retains (the last N steps).
pub const PROFILE_RING: usize = 32;

/// A named slice of a job's time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Waiting for a shard to become resident: cache-miss disk reads and
    /// waits on another thread's in-flight decode.
    PageIn = 0,
    /// Decoding shard bytes into columns (CRC checks included).
    Decode = 1,
    /// Objective evaluation: the scoring sweep of a descent step.
    Score = 2,
    /// Gathering the per-step stratified sample (Core DCA only).
    Sample = 3,
    /// Combining distributed partials into one result (fleet only).
    Combine = 4,
    /// Worker round trips: serialize, send, wait, parse — retries included.
    Wire = 5,
}

impl Phase {
    /// Every phase, in canonical (discriminant) order.
    pub const ALL: [Self; NUM_PHASES] = [
        Self::PageIn,
        Self::Decode,
        Self::Score,
        Self::Sample,
        Self::Combine,
        Self::Wire,
    ];

    /// The snake_case name used in JSON and metric labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PageIn => "page_in",
            Self::Decode => "decode",
            Self::Score => "score",
            Self::Sample => "sample",
            Self::Combine => "combine",
            Self::Wire => "wire",
        }
    }
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Which phase.
    pub phase: Phase,
    /// Attributed self-time, microseconds.
    pub total_us: u64,
    /// Number of scopes that recorded into this phase.
    pub count: u64,
    /// Largest single scope, microseconds.
    pub max_us: u64,
}

/// One descent step's per-phase attribution (deltas between consecutive
/// [`JobProfile::end_step`] calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepBreakdown {
    /// The 1-based step counter the deltas belong to.
    pub step: usize,
    /// Microseconds attributed to each phase during the step, indexed by
    /// [`Phase`] discriminant.
    pub phase_us: [u64; NUM_PHASES],
}

#[derive(Debug)]
struct StepRing {
    /// Phase totals at the previous `end_step`, so each entry is a delta.
    last_totals: [u64; NUM_PHASES],
    entries: [StepBreakdown; PROFILE_RING],
    /// Next write position.
    head: usize,
    /// Number of valid entries (saturates at `PROFILE_RING`).
    len: usize,
}

impl Default for StepRing {
    fn default() -> Self {
        Self {
            last_totals: [0; NUM_PHASES],
            entries: [StepBreakdown::default(); PROFILE_RING],
            head: 0,
            len: 0,
        }
    }
}

/// Per-job phase accumulator: pre-sized atomics, shared via `Arc` between
/// the job thread, pool workers, and whoever serves `GET /jobs/{id}/profile`.
#[derive(Debug, Default)]
pub struct JobProfile {
    total_us: [AtomicU64; NUM_PHASES],
    count: [AtomicU64; NUM_PHASES],
    max_us: [AtomicU64; NUM_PHASES],
    ring: Mutex<StepRing>,
}

impl JobProfile {
    /// A fresh all-zero profile behind an `Arc`, ready to [`install`].
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn record(&self, phase: Phase, us: u64) {
        let i = phase as usize;
        self.total_us[i].fetch_add(us, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
        self.max_us[i].fetch_max(us, Ordering::Relaxed);
    }

    /// Attributed total for one phase, microseconds.
    #[must_use]
    pub fn phase_total_us(&self, phase: Phase) -> u64 {
        self.total_us[phase as usize].load(Ordering::Relaxed)
    }

    /// Current totals for every phase, in [`Phase::ALL`] order.
    #[must_use]
    pub fn stats(&self) -> [PhaseStats; NUM_PHASES] {
        std::array::from_fn(|i| PhaseStats {
            phase: Phase::ALL[i],
            total_us: self.total_us[i].load(Ordering::Relaxed),
            count: self.count[i].load(Ordering::Relaxed),
            max_us: self.max_us[i].load(Ordering::Relaxed),
        })
    }

    /// Close one descent step: snapshot the per-phase deltas since the
    /// previous `end_step` into the breakdown ring. Called from the job's
    /// progress hook (outside the descent loop, like all timing).
    pub fn end_step(&self, step: usize) {
        let totals: [u64; NUM_PHASES] =
            std::array::from_fn(|i| self.total_us[i].load(Ordering::Relaxed));
        let mut ring = self.ring.lock().expect("profile ring lock poisoned");
        let mut entry = StepBreakdown {
            step,
            phase_us: [0; NUM_PHASES],
        };
        for (slot, (now, prev)) in entry
            .phase_us
            .iter_mut()
            .zip(totals.iter().zip(&ring.last_totals))
        {
            *slot = now.saturating_sub(*prev);
        }
        ring.last_totals = totals;
        let head = ring.head;
        ring.entries[head] = entry;
        ring.head = (head + 1) % PROFILE_RING;
        ring.len = (ring.len + 1).min(PROFILE_RING);
    }

    /// The retained per-step breakdowns, oldest first.
    #[must_use]
    pub fn steps(&self) -> Vec<StepBreakdown> {
        let ring = self.ring.lock().expect("profile ring lock poisoned");
        let mut out = Vec::with_capacity(ring.len);
        let start = (ring.head + PROFILE_RING - ring.len) % PROFILE_RING;
        for i in 0..ring.len {
            out.push(ring.entries[(start + i) % PROFILE_RING]);
        }
        out
    }
}

struct OpenScope {
    phase: Phase,
    start: Instant,
    /// Recorded time of nested scopes and joined sections, excluded from
    /// this scope's self-time.
    child_us: u64,
}

struct ProfileContext {
    profile: Option<Arc<JobProfile>>,
    stack: Vec<OpenScope>,
    /// The `parallel_map` section this thread works in, on a pool worker.
    section: Option<Arc<Section>>,
}

thread_local! {
    static CURRENT: RefCell<ProfileContext> = RefCell::new(ProfileContext {
        profile: None,
        // Scopes nest at most a few layers (score → page_in → decode);
        // pre-size so the hot path never reallocates.
        stack: Vec::with_capacity(8),
        section: None,
    });
}

/// Install `profile` as this thread's attribution target; restored to the
/// previous target when the returned guard drops. `!Send` by construction —
/// the guard must drop on the installing thread.
#[must_use]
pub fn install(profile: Arc<JobProfile>) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().profile.replace(profile));
    InstallGuard {
        previous,
        _not_send: PhantomData,
    }
}

/// The currently installed profile handle, if any.
#[must_use]
pub fn current() -> Option<Arc<JobProfile>> {
    CURRENT.with(|c| c.borrow().profile.clone())
}

/// Restores the previously installed profile on drop.
pub struct InstallGuard {
    previous: Option<Arc<JobProfile>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| c.borrow_mut().profile = previous);
    }
}

/// One [`crate::parallel_map`] call under an installed profile. Its workers
/// run at once under the caller's open scope, so each records `1/workers`
/// of its scopes' time (the divisor compounds for a section opened on a
/// worker), and [`Section::close`] counts their total as nested time of the
/// caller's innermost open scope once they join.
pub(crate) struct Section {
    profile: Arc<JobProfile>,
    scale: u64,
    recorded_us: AtomicU64,
}

impl Section {
    /// A section of `workers` threads; `None` without an installed profile.
    pub(crate) fn open(workers: usize) -> Option<Arc<Self>> {
        CURRENT.with(|c| {
            let ctx = c.borrow();
            Some(Arc::new(Self {
                profile: ctx.profile.clone()?,
                scale: workers as u64 * ctx.section.as_ref().map_or(1, |s| s.scale),
                recorded_us: AtomicU64::new(0),
            }))
        })
    }

    /// Make a freshly spawned pool worker record into the section; the
    /// profile is installed until the guard drops, the section until the
    /// thread exits.
    pub(crate) fn enter(self: &Arc<Self>) -> InstallGuard {
        CURRENT.with(|c| c.borrow_mut().section = Some(Arc::clone(self)));
        install(Arc::clone(&self.profile))
    }

    /// On the opening thread, after the join: credit what the workers
    /// recorded to this thread's innermost open scope, and to the section
    /// this thread works in, if any.
    pub(crate) fn close(&self) {
        let us = self.recorded_us.load(Ordering::Relaxed);
        CURRENT.with(|c| {
            let mut ctx = c.borrow_mut();
            if let Some(open) = ctx.stack.last_mut() {
                open.child_us = open.child_us.saturating_add(us);
            }
            if let Some(section) = &ctx.section {
                section.recorded_us.fetch_add(us, Ordering::Relaxed);
            }
        });
    }
}

/// Open a phase scope: the time from here until the returned guard drops is
/// attributed to `phase` on the installed profile, minus any nested scopes
/// opened on this thread meanwhile. With no profile installed this is one
/// thread-local check and the guard is inert.
#[must_use]
pub fn scope(phase: Phase) -> PhaseScope {
    let active = CURRENT.with(|c| {
        let mut ctx = c.borrow_mut();
        if ctx.profile.is_none() {
            return false;
        }
        ctx.stack.push(OpenScope {
            phase,
            start: Instant::now(),
            child_us: 0,
        });
        true
    });
    PhaseScope {
        active,
        _not_send: PhantomData,
    }
}

/// Guard returned by [`scope`]; records on drop. Strictly stack-ordered on
/// one thread (`!Send`), which is what makes self-time subtraction sound.
pub struct PhaseScope {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT.with(|c| {
            let mut ctx = c.borrow_mut();
            let Some(open) = ctx.stack.pop() else { return };
            let scale = ctx.section.as_ref().map_or(1, |s| s.scale);
            let elapsed_us =
                u64::try_from(open.start.elapsed().as_micros()).unwrap_or(u64::MAX) / scale;
            let self_us = elapsed_us.saturating_sub(open.child_us);
            if let Some(parent) = ctx.stack.last_mut() {
                parent.child_us = parent.child_us.saturating_add(elapsed_us);
            }
            if let Some(profile) = &ctx.profile {
                profile.record(open.phase, self_us);
            }
            if let Some(section) = &ctx.section {
                section.recorded_us.fetch_add(self_us, Ordering::Relaxed);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scopes_are_inert_without_an_installed_profile() {
        // No profile: the scope must not panic, record, or leak stack state.
        {
            let _s = scope(Phase::Score);
        }
        assert!(current().is_none());
        CURRENT.with(|c| assert!(c.borrow().stack.is_empty()));
    }

    #[test]
    fn install_guard_restores_the_previous_profile() {
        let outer = JobProfile::new();
        let inner = JobProfile::new();
        let g1 = install(outer.clone());
        {
            let _g2 = install(inner.clone());
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        drop(g1);
        assert!(current().is_none());
    }

    #[test]
    fn scopes_attribute_to_the_installed_profile() {
        let profile = JobProfile::new();
        let _g = install(profile.clone());
        {
            let _s = scope(Phase::Decode);
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = profile.stats();
        let decode = stats[Phase::Decode as usize];
        assert_eq!(decode.count, 1);
        assert!(decode.total_us >= 1_000, "got {}", decode.total_us);
        assert_eq!(decode.max_us, decode.total_us);
        assert_eq!(stats[Phase::Score as usize].count, 0);
    }

    #[test]
    fn nested_scopes_subtract_child_time_from_the_parent() {
        let profile = JobProfile::new();
        let _g = install(profile.clone());
        {
            let _outer = scope(Phase::Score);
            {
                let _inner = scope(Phase::PageIn);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let page = profile.phase_total_us(Phase::PageIn);
        let score = profile.phase_total_us(Phase::Score);
        assert!(page >= 5_000, "inner scope owns the sleep, got {page}");
        assert!(
            score < page / 2,
            "outer self-time excludes the nested sleep: score={score} page={page}"
        );
    }

    #[test]
    fn end_step_snapshots_deltas_into_the_ring() {
        let profile = JobProfile::new();
        let _g = install(profile.clone());
        for step in 1..=3 {
            {
                let _s = scope(Phase::Sample);
                std::thread::sleep(Duration::from_millis(1));
            }
            profile.end_step(step);
        }
        let steps = profile.steps();
        assert_eq!(steps.len(), 3);
        assert_eq!(
            steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let ring_sum: u64 = steps
            .iter()
            .map(|s| s.phase_us[Phase::Sample as usize])
            .sum();
        assert_eq!(
            ring_sum,
            profile.phase_total_us(Phase::Sample),
            "deltas partition the total while the ring has not wrapped"
        );
    }

    #[test]
    fn the_ring_retains_only_the_last_n_steps() {
        let profile = JobProfile::new();
        for step in 1..=(PROFILE_RING + 5) {
            profile.end_step(step);
        }
        let steps = profile.steps();
        assert_eq!(steps.len(), PROFILE_RING);
        assert_eq!(steps.first().unwrap().step, 6, "oldest surviving step");
        assert_eq!(steps.last().unwrap().step, PROFILE_RING + 5);
    }

    #[test]
    fn worker_thread_records_land_in_the_same_profile() {
        let profile = JobProfile::new();
        let handle = profile.clone();
        std::thread::spawn(move || {
            let _g = install(handle);
            let _s = scope(Phase::Wire);
            std::thread::sleep(Duration::from_millis(1));
        })
        .join()
        .unwrap();
        assert_eq!(profile.stats()[Phase::Wire as usize].count, 1);
    }
}
