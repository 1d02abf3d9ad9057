//! Reusable scratch buffers for the allocation-free DCA inner loop.
//!
//! Every DCA step evaluates an objective on a fresh sample. Done naively that
//! costs `O(sample_size)` heap allocations per step (effective scores and
//! ranked order) on top of the sample itself — hundreds of thousands of
//! allocations over a full run. Each runner ([`crate::dca::run_core_dca`],
//! [`crate::dca::run_full_dca`], [`crate::dca::run_refinement`] and the
//! sharded runners) allocates one [`EvalScratch`], the sample-index buffer
//! and the direction vector once per run and threads them through
//! [`crate::dca::Objective::evaluate_into`], so the steady-state loop
//! performs no `O(sample_size)`-sized allocation. (The metric layer still
//! creates a few `num_fairness`-sized vectors per step — typically 4
//! elements — which are negligible next to the sample-sized buffers.)

use crate::ranking::topk::RankedSelection;

/// Buffers reused by [`crate::dca::Objective::evaluate_into`]: the ranked
/// selection (scores + order).
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Reused ranking: its score and order vectors are refilled in place.
    pub(crate) ranking: RankedSelection,
}

impl EvalScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        Self {
            ranking: RankedSelection::from_scores(Vec::new()),
        }
    }

    /// The most recently computed ranking (primarily for tests and
    /// diagnostics).
    #[must_use]
    pub fn ranking(&self) -> &RankedSelection {
        &self.ranking
    }
}

impl Default for EvalScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_constructors_start_empty() {
        assert!(EvalScratch::new().ranking().is_empty());
        assert!(EvalScratch::default().ranking().is_empty());
    }
}
