//! Cooperative cancellation and progress reporting for long DCA runs.
//!
//! A descent over a large cohort can run for minutes; a serving layer that
//! launches DCA as a background job needs two things the plain runners do not
//! provide: a way to *stop* a run that nobody wants anymore, and a way to
//! *observe* how far along it is. [`RunControl`] carries both:
//!
//! * **cancellation** — any thread may call [`RunControl::cancel`]; the
//!   descent checks the flag between steps and returns
//!   [`FairError::Cancelled`] at the next step boundary, leaving no partial
//!   state behind (the outcome is simply an error);
//! * **progress** — an optional callback invoked once per completed step with
//!   a [`DcaProgress`] snapshot (step counter and total), from the thread
//!   running the descent.
//!
//! A default (empty) control is free: no allocation, one relaxed atomic load
//! per step. The controlled runner variants
//! ([`crate::dca::run_full_dca_sharded_controlled`],
//! [`crate::dca::run_core_dca_sharded_controlled`]) execute the *identical*
//! step loop as their uncontrolled counterparts, so a run that is never
//! cancelled produces the bit-identical trajectory.

use crate::error::{FairError, Result};
use std::sync::atomic::{AtomicBool, Ordering};

/// A point-in-time progress snapshot handed to the progress callback after
/// each completed descent step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcaProgress {
    /// Steps completed so far (1-based after the first step).
    pub step: usize,
    /// Total steps this run will execute
    /// ([`crate::dca::DcaConfig::core_steps`]).
    pub total_steps: usize,
}

/// Shared handle controlling a running descent: a cancellation flag plus an
/// optional progress callback. Designed to be stored in an `Arc` and shared
/// between the thread running DCA and the threads observing it.
#[derive(Default)]
pub struct RunControl {
    cancelled: AtomicBool,
    #[allow(clippy::type_complexity)]
    progress: Option<Box<dyn Fn(DcaProgress) + Send + Sync>>,
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("has_progress_hook", &self.progress.is_some())
            .finish()
    }
}

impl RunControl {
    /// A control with no progress hook and the cancellation flag cleared.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A control that invokes `hook` after every completed descent step.
    #[must_use]
    pub fn with_progress(hook: impl Fn(DcaProgress) + Send + Sync + 'static) -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            progress: Some(Box::new(hook)),
        }
    }

    /// Request cancellation: the descent returns
    /// [`FairError::Cancelled`] at the next step boundary. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Step-boundary check the descent loops call *before* each step:
    /// surfaces a pending cancellation as an error.
    ///
    /// # Errors
    /// Returns [`FairError::Cancelled`] when [`RunControl::cancel`] has been
    /// called.
    pub(crate) fn checkpoint(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(FairError::Cancelled);
        }
        Ok(())
    }

    /// Report a completed step to the progress hook (if any).
    pub(crate) fn report(&self, step: usize, total_steps: usize) {
        if let Some(hook) = &self.progress {
            hook(DcaProgress { step, total_steps });
        }
    }
}

/// A progress hook that records the wall-clock duration of each descent step
/// into `histogram` — the building block behind the serve layer's per-step
/// job histograms and the bench suite's instrumentation-overhead contrast.
///
/// Timing lives entirely inside the callback (the caller's layer), never in
/// the descent itself: the step loop is identical with or without the hook,
/// so trajectories stay bit-identical. The first report measures from hook
/// construction; subsequent reports measure from the previous report.
/// Compose it with other bookkeeping by calling the returned closure from a
/// wrapper hook.
pub fn step_duration_hook(
    histogram: std::sync::Arc<crate::obs::Histogram>,
) -> impl Fn(DcaProgress) + Send + Sync + 'static {
    let last = std::sync::Mutex::new(std::time::Instant::now());
    move |_p: DcaProgress| {
        let mut last = last.lock().expect("step timer lock poisoned");
        let now = std::time::Instant::now();
        let us = u64::try_from(
            now.duration_since(*last)
                .as_micros()
                .min(u128::from(u64::MAX)),
        )
        .unwrap_or(u64::MAX);
        *last = now;
        histogram.record(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn default_control_is_not_cancelled_and_checkpoints_ok() {
        let c = RunControl::new();
        assert!(!c.is_cancelled());
        assert!(c.checkpoint().is_ok());
        c.report(1, 10); // no hook: a no-op
    }

    #[test]
    fn cancel_turns_checkpoint_into_the_cancelled_error() {
        let c = RunControl::new();
        c.cancel();
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
        assert!(matches!(c.checkpoint(), Err(FairError::Cancelled)));
    }

    #[test]
    fn progress_hook_sees_every_report() {
        let seen = Arc::new(AtomicUsize::new(0));
        let captured = seen.clone();
        let c = RunControl::with_progress(move |p: DcaProgress| {
            assert_eq!(p.total_steps, 4);
            captured.fetch_add(p.step, Ordering::Relaxed);
        });
        for step in 1..=4 {
            c.report(step, 4);
        }
        assert_eq!(seen.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    }

    #[test]
    fn control_is_shareable_across_threads() {
        let c = Arc::new(RunControl::new());
        let c2 = c.clone();
        std::thread::spawn(move || c2.cancel()).join().unwrap();
        assert!(c.is_cancelled());
    }
}
