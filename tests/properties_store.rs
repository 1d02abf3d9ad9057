//! Property and acceptance tests for the on-disk shard store (`fair-store`):
//!
//! 1. **Round trip** — `ShardedDataset → StoreWriter → ShardStore` is
//!    bit-for-bit identical per shard (ids, feature/fairness bit patterns,
//!    labels), for shard sizes 1, 7, and the production 64k, including short
//!    final shards.
//! 2. **Evaluation parity** — every sharded metric and a Full-DCA bonus
//!    trajectory computed over the `ShardStore` equals the in-memory
//!    `ShardedDataset` result bit for bit, which in turn equals the serial
//!    single-`Dataset` path (dyadic-grid data, see `properties_shard.rs`).
//! 3. **Corruption** — wrong magic, truncated directories, and flipped data
//!    bytes are structured errors, never panics and never mis-decodes.
//! 4. **Bounded memory (acceptance)** — evaluating a cohort through a cache
//!    budget smaller than its column data keeps the cache's peak resident
//!    bytes under the budget, while still reproducing the in-memory results
//!    exactly.
//! 5. **Row gathers** — Core DCA's per-step gathers read only the rows'
//!    checksummed row groups from shards that are not resident, with the
//!    same trajectory as in memory at every budget, and a flipped byte in
//!    any group is reported at that group, never decoded.
//! 6. **Older versions** — files from the first format revision (one
//!    checksum per column block) and the second (checksummed row groups
//!    stored column-major) still open, verify, sweep and gather, and the
//!    second takes the same corruption checks as the current one.

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::prelude::*;
use fair_ranking::store::column_bytes;
use fair_ranking::store::format::{GROUP_ROWS, HEADER_LEN, VERSION, VERSION_2};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::ops::Range;

/// Shard sizes the checklist calls out: degenerate (1), a small prime that
/// rarely divides the cohort (7), and the production default.
const SHARD_SIZES: [usize; 3] = [1, 7, DEFAULT_SHARD_SIZE];

/// One generated row: score numerator, binary group flag, continuous-need
/// numerator, outcome label — everything on dyadic grids so every combine is
/// exact and "bit-for-bit" is meaningful.
type Row = (u32, bool, u16, bool);

fn dataset_from_rows(rows: &[Row]) -> Dataset {
    let schema = Schema::from_names(&["score"], &["grp", "need"], &[]).unwrap();
    let objects: Vec<DataObject> = rows
        .iter()
        .enumerate()
        .map(|(i, &(score, member, need, label))| {
            DataObject::new_unchecked(
                i as u64,
                vec![f64::from(score) / 64.0],
                vec![f64::from(u8::from(member)), f64::from(need) / 256.0],
                Some(label),
            )
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn row_strategy() -> impl Strategy<Value = Vec<Row>> {
    pvec(
        (0_u32..8192, any::<bool>(), 0_u16..257, any::<bool>()),
        8..120,
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fair_store_property_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.fss", std::process::id()))
}

/// `rows` gathered from the in-memory cohort: the reference a store's
/// gather must reproduce bit for bit.
fn memory_rows(mem: &ShardedDataset, rows: &[usize]) -> Dataset {
    let mut out = Dataset::empty(mem.schema().clone());
    mem.gather_rows(rows, &mut out).unwrap();
    out
}

fn same_rows(a: &Dataset, b: &Dataset) -> bool {
    a.ids() == b.ids()
        && a.labels() == b.labels()
        && bits(a.features_matrix()) == bits(b.features_matrix())
        && bits(a.fairness_matrix()) == bits(b.fairness_matrix())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing a sharded cohort to disk and paging it back reproduces every
    /// shard bit for bit, at every shard size (short final shards included).
    #[test]
    fn store_round_trip_is_bit_identical(rows in row_strategy()) {
        let flat = dataset_from_rows(&rows);
        let path = temp_path("round_trip");
        for shard_size in SHARD_SIZES {
            let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let summary = write_source(&mem, &path).unwrap();
            prop_assert_eq!(summary.rows, rows.len() as u64);
            prop_assert_eq!(summary.shards, mem.num_shards() as u64);

            let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
            prop_assert_eq!(store.len(), mem.len());
            prop_assert_eq!(store.shard_size(), shard_size);
            prop_assert_eq!(store.num_shards(), mem.num_shards());
            for i in 0..mem.num_shards() {
                let disk = store.read_shard(i).unwrap();
                let shard = mem.shard(i);
                prop_assert_eq!(disk.len(), shard.len(), "shard {} rows", i);
                prop_assert_eq!(disk.ids(), shard.data().ids(), "shard {} ids", i);
                prop_assert_eq!(disk.labels(), shard.data().labels(), "shard {} labels", i);
                prop_assert_eq!(
                    bits(disk.features_matrix()),
                    bits(shard.data().features_matrix()),
                    "shard {} features", i
                );
                prop_assert_eq!(
                    bits(disk.fairness_matrix()),
                    bits(shard.data().fairness_matrix()),
                    "shard {} fairness", i
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Every sharded metric — and a Full-DCA bonus trajectory — evaluated
    /// over the on-disk store equals the in-memory sharded path bit for bit,
    /// which equals the serial path (`ShardStore == ShardedDataset ==
    /// serial`).
    #[test]
    fn store_evaluation_matches_memory_and_serial(
        rows in row_strategy(),
        k in 0.02_f64..1.0,
    ) {
        let flat = dataset_from_rows(&rows);
        let view = flat.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = [2.5_f64, 0.25];
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &bonus));
        let log_cfg = LogDiscountConfig { step: 5, max_fraction: 0.5 };

        let serial_disp = disparity_at_k(&view, &ranking, k).unwrap();
        let serial_ndcg = ndcg_at_k(&view, &ranker, &ranking, k).unwrap();
        let serial_log = log_discounted_disparity(&view, &ranking, &log_cfg).unwrap();
        let serial_fpr = fpr_difference_at_k(&view, &ranking, k).unwrap();
        let serial_di =
            fair_ranking::core::metrics::scaled_disparate_impact_at_k(&view, &ranking, k).unwrap();

        let path = temp_path("parity");
        let mem = ShardedDataset::from_dataset(&flat, 7).unwrap();
        write_source(&mem, &path).unwrap();
        // A budget of two shards forces steady paging during evaluation.
        let two_shards = 2 * column_bytes(mem.shard(0).data());
        let store = ShardStore::open_with_budget(&path, two_shards).unwrap();

        let mem_disp = shmetrics::disparity_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_disp = shmetrics::disparity_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_disp), &bits(&mem_disp), "serial vs memory");
        prop_assert_eq!(&bits(&mem_disp), &bits(&store_disp), "memory vs store");

        let mem_ndcg = shmetrics::ndcg_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_ndcg = shmetrics::ndcg_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(serial_ndcg.to_bits(), mem_ndcg.to_bits());
        prop_assert_eq!(mem_ndcg.to_bits(), store_ndcg.to_bits());

        let mem_log = shmetrics::log_discounted_disparity(&mem, &ranker, &bonus, &log_cfg).unwrap();
        let store_log =
            shmetrics::log_discounted_disparity(&store, &ranker, &bonus, &log_cfg).unwrap();
        prop_assert_eq!(&bits(&serial_log), &bits(&mem_log));
        prop_assert_eq!(&bits(&mem_log), &bits(&store_log));

        let mem_fpr = shmetrics::fpr_difference_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_fpr = shmetrics::fpr_difference_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_fpr), &bits(&mem_fpr));
        prop_assert_eq!(&bits(&mem_fpr), &bits(&store_fpr));

        let mem_di = shmetrics::scaled_disparate_impact_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_di = shmetrics::scaled_disparate_impact_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_di), &bits(&mem_di));
        prop_assert_eq!(&bits(&mem_di), &bits(&store_di));

        // Full DCA: the whole bonus trajectory must agree across all three.
        let objective = TopKDisparity::new(k.clamp(0.05, 0.6));
        let config = DcaConfig {
            learning_rates: vec![8.0, 0.5],
            iterations_per_rate: 3,
            refinement_iterations: 0,
            ..DcaConfig::default()
        };
        // Reference: the same descent with every step's direction from the
        // serial metric over a full sort of the flat cohort.
        let serial_dca = fair_ranking::core::dca::run_full_descent(
            2, flat.len(), &config, None, true, &RunControl::new(), |b, out| {
                let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, b));
                *out = disparity_at_k(&view, &ranking, objective.k)?;
                Ok(())
            },
        )
        .unwrap();
        let mem_dca = run_full_dca_sharded(&mem, &ranker, &objective, &config, None, true).unwrap();
        let store_dca =
            run_full_dca_sharded(&store, &ranker, &objective, &config, None, true).unwrap();
        prop_assert_eq!(&bits(&serial_dca.bonus), &bits(&mem_dca.bonus));
        prop_assert_eq!(&bits(&mem_dca.bonus), &bits(&store_dca.bonus));
        prop_assert_eq!(mem_dca.steps, store_dca.steps);
        for (m, s) in mem_dca.trace.iter().zip(&store_dca.trace) {
            prop_assert_eq!(&bits(&m.bonus), &bits(&s.bonus), "trace step {}", m.step);
        }

        // Core DCA with per-shard sampling draws the same seed-split streams
        // regardless of the storage backend.
        let core_cfg = DcaConfig {
            sample_size: 30,
            learning_rates: vec![4.0],
            iterations_per_rate: 3,
            refinement_iterations: 0,
            seed: 11,
            ..DcaConfig::default()
        };
        let mem_core =
            run_core_dca_sharded(&mem, &ranker, &objective, &core_cfg, None, false).unwrap();
        let store_core =
            run_core_dca_sharded(&store, &ranker, &objective, &core_cfg, None, false).unwrap();
        prop_assert_eq!(&bits(&mem_core.bonus), &bits(&store_core.bonus));
        drop(store);
        std::fs::remove_file(path).ok();

        // Each step gathers its rows from the cache where a shard is
        // resident and from the rows' groups in the file where it is not, so
        // after a warming sweep the three budgets take all-file, mixed and
        // all-cache gathers. A shard of 2·G+5 rows spans several groups and
        // ends in a short one.
        let path = temp_path("parity_core");
        for shard_size in [7, 2 * GROUP_ROWS as usize + 5] {
            let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            write_source(&mem, &path).unwrap();
            let mem_core =
                run_core_dca_sharded(&mem, &ranker, &objective, &core_cfg, None, true).unwrap();
            let two_shards = 2 * column_bytes(mem.shard(0).data());
            for budget in [0, two_shards, usize::MAX] {
                let store = ShardStore::open_with_budget(&path, budget).unwrap();
                store.fairness_centroid().unwrap();
                let store_core =
                    run_core_dca_sharded(&store, &ranker, &objective, &core_cfg, None, true)
                        .unwrap();
                prop_assert_eq!(
                    &bits(&mem_core.bonus),
                    &bits(&store_core.bonus),
                    "shard size {}, budget {}", shard_size, budget
                );
                for (m, s) in mem_core.trace.iter().zip(&store_core.trace) {
                    prop_assert_eq!(&bits(&m.bonus), &bits(&s.bonus), "trace step {}", m.step);
                }
            }
        }
        std::fs::remove_file(path).ok();
    }
}

/// The acceptance criterion: a cohort whose column data exceeds the cache
/// budget evaluates every sharded metric and a Full-DCA trajectory
/// identically to the in-memory path while the cache's peak resident bytes
/// stay under the budget.
#[test]
fn paged_evaluation_stays_under_the_cache_budget() {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shard_size = 64_usize;
    let num_shards = (8 * workers).max(64);
    let n = shard_size * num_shards;
    let rows: Vec<Row> = (0..n as u32)
        .map(|i| {
            (
                (i * 517) % 8192,
                i % 3 == 0,
                ((i * 97) % 257) as u16,
                i % 2 == 0,
            )
        })
        .collect();
    let flat = dataset_from_rows(&rows);
    let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
    let path = temp_path("budget");
    write_source(&mem, &path).unwrap();

    let shard_bytes = column_bytes(mem.shard(0).data());
    let total_bytes = num_shards * shard_bytes;
    // Big enough that the parallel workers' pinned working set fits, small
    // enough that the cohort cannot be resident all at once.
    let budget = (4 * workers * shard_bytes).max(8 * shard_bytes);
    assert!(
        budget < total_bytes,
        "test setup: budget {budget} must be smaller than the cohort's {total_bytes} column bytes"
    );

    let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
    let bonus = [2.5_f64, 0.25];
    let k = 0.05;
    let log_cfg = LogDiscountConfig {
        step: 50,
        max_fraction: 0.5,
    };
    let objective = TopKDisparity::new(k);
    let config = DcaConfig {
        learning_rates: vec![8.0, 0.5],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        ..DcaConfig::default()
    };
    let mem_disp = shmetrics::disparity_at_k(&mem, &ranker, &bonus, k).unwrap();
    let mem_ndcg = shmetrics::ndcg_at_k(&mem, &ranker, &bonus, k).unwrap();
    let mem_log = shmetrics::log_discounted_disparity(&mem, &ranker, &bonus, &log_cfg).unwrap();
    let mem_fpr = shmetrics::fpr_difference_at_k(&mem, &ranker, &bonus, k).unwrap();
    let mem_dca = run_full_dca_sharded(&mem, &ranker, &objective, &config, None, true).unwrap();

    let store = ShardStore::open_with_budget(&path, budget).unwrap();
    let store_disp = shmetrics::disparity_at_k(&store, &ranker, &bonus, k).unwrap();
    assert_eq!(bits(&mem_disp), bits(&store_disp), "disparity parity");
    let store_ndcg = shmetrics::ndcg_at_k(&store, &ranker, &bonus, k).unwrap();
    assert_eq!(mem_ndcg.to_bits(), store_ndcg.to_bits(), "ndcg parity");
    assert_eq!(
        bits(&mem_log),
        bits(&shmetrics::log_discounted_disparity(&store, &ranker, &bonus, &log_cfg).unwrap()),
        "log-discounted parity"
    );
    assert_eq!(
        bits(&mem_fpr),
        bits(&shmetrics::fpr_difference_at_k(&store, &ranker, &bonus, k).unwrap()),
        "fpr parity"
    );
    let store_dca = run_full_dca_sharded(&store, &ranker, &objective, &config, None, true).unwrap();
    assert_eq!(bits(&mem_dca.bonus), bits(&store_dca.bonus), "DCA parity");
    for (m, s) in mem_dca.trace.iter().zip(&store_dca.trace) {
        assert_eq!(bits(&m.bonus), bits(&s.bonus), "DCA trace step {}", m.step);
    }

    let stats = store.cache_stats();
    assert!(
        stats.peak_bytes <= budget,
        "peak resident bytes {} must stay under the budget {budget} (shard {shard_bytes} B, \
         {num_shards} shards, {workers} workers)",
        stats.peak_bytes
    );
    assert!(
        stats.misses >= num_shards as u64,
        "every shard must have been paged in at least once ({} misses)",
        stats.misses
    );
    assert!(
        stats.evictions > 0,
        "a budget below the cohort size must evict ({stats:?})"
    );
    assert_eq!(stats.budget_bytes, budget);
    assert_eq!(stats.pinned_shards, 0, "no pins survive the kernels");
    assert!(stats.resident_bytes <= budget);

    // Core DCA on a store opened fresh for it: no shard is resident, so
    // every step reads its rows' groups from the file and pages nothing in.
    let core_cfg = DcaConfig {
        sample_size: 300,
        learning_rates: vec![8.0, 0.5],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        seed: 5,
        ..DcaConfig::default()
    };
    let mem_core = run_core_dca_sharded(&mem, &ranker, &objective, &core_cfg, None, true).unwrap();
    let store = ShardStore::open_with_budget(&path, budget).unwrap();
    let store_core =
        run_core_dca_sharded(&store, &ranker, &objective, &core_cfg, None, true).unwrap();
    assert_eq!(
        bits(&mem_core.bonus),
        bits(&store_core.bonus),
        "Core DCA parity"
    );
    for (m, s) in mem_core.trace.iter().zip(&store_core.trace) {
        assert_eq!(bits(&m.bonus), bits(&s.bonus), "Core DCA step {}", m.step);
    }
    let stats = store.cache_stats();
    assert!(stats.peak_bytes <= budget, "{stats:?}");
    assert_eq!(stats.misses, 0, "a gather pages no shard in ({stats:?})");
    assert!(stats.sparse_groups > 0, "the gathers read row groups");
    std::fs::remove_file(path).ok();
}

/// Concurrency regression for the serving layer: N request threads hammer
/// *one* shared `ShardStore` handle in different shard orders while the
/// budget forces continuous eviction. Every thread must observe every shard
/// bit-identical to the in-memory (serial) reference — a stale or
/// mid-eviction read would corrupt the comparison — and the pin-while-
/// borrowed accounting must keep `peak_bytes <= budget` even with all
/// threads pinning simultaneously.
#[test]
fn concurrent_paged_reads_are_bit_identical_and_stay_under_budget() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let shard_size = 32_usize;
    let num_shards = 40_usize;
    let n = shard_size * num_shards;
    let rows: Vec<Row> = (0..n as u32)
        .map(|i| {
            (
                (i * 811) % 8192,
                i % 5 == 0,
                ((i * 31) % 257) as u16,
                i % 2 == 1,
            )
        })
        .collect();
    let flat = dataset_from_rows(&rows);
    let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
    let path = temp_path("concurrent");
    write_source(&mem, &path).unwrap();

    let shard_bytes = column_bytes(mem.shard(0).data());
    // Room for each thread's pinned shard plus one, far below the cohort —
    // every round of the hammer loop below must evict.
    let budget = (THREADS + 1) * shard_bytes;
    assert!(
        budget < num_shards * shard_bytes,
        "budget must force paging"
    );

    // Serial reference: per-shard bit patterns off the in-memory source.
    let reference: Vec<(Vec<u64>, Vec<u64>, u64)> = (0..num_shards)
        .map(|i| {
            let view = mem.shard(i);
            let d = view.data();
            (
                bits(d.features_matrix()),
                bits(d.fairness_matrix()),
                d.ids().iter().map(|id| id.0).sum::<u64>(),
            )
        })
        .collect();

    let store = ShardStore::open_with_budget(&path, budget).unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            let reference = &reference;
            scope.spawn(move || {
                // Each thread walks the shards with a different coprime
                // stride, so at any instant the threads are pinning
                // different shards and evicting each other's.
                let stride = [1, 3, 7, 9, 11, 13, 17, 19][t];
                for round in 0..ROUNDS {
                    for j in 0..num_shards {
                        let i = (j * stride + round + t) % num_shards;
                        store.with_shard(i, |view| {
                            let d = view.data();
                            let (ref f, ref a, id_sum) = reference[i];
                            assert_eq!(&bits(d.features_matrix()), f, "shard {i} features");
                            assert_eq!(&bits(d.fairness_matrix()), a, "shard {i} fairness");
                            assert_eq!(
                                d.ids().iter().map(|id| id.0).sum::<u64>(),
                                id_sum,
                                "shard {i} ids"
                            );
                        });
                    }
                }
            });
        }
    });

    let stats = store.cache_stats();
    assert!(
        stats.peak_bytes <= budget,
        "concurrent pinning must never push the peak {} over the budget {budget}",
        stats.peak_bytes
    );
    assert!(
        stats.evictions > 0,
        "the hammer loop must continuously evict ({stats:?})"
    );
    assert!(
        stats.misses >= num_shards as u64,
        "every shard pages in at least once"
    );
    assert_eq!(stats.pinned_shards, 0, "no pins survive the threads");
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * ROUNDS * num_shards) as u64,
        "every access is either a hit or a miss"
    );
    std::fs::remove_file(path).ok();
}

/// Corrupted files must surface as structured `StoreError`s through the
/// public API — never a panic, never a silently wrong decode.
#[test]
fn corrupted_files_yield_structured_errors() {
    let flat = dataset_from_rows(
        &(0..40_u32)
            .map(|i| ((i * 31) % 8192, i % 2 == 0, (i % 257) as u16, i % 3 == 0))
            .collect::<Vec<Row>>(),
    );
    let mem = ShardedDataset::from_dataset(&flat, 8).unwrap();
    let path = temp_path("corrupt");
    write_source(&mem, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Wrong magic.
    let mut bad = pristine.clone();
    bad[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bad).unwrap();
    match ShardStore::open_with_budget(&path, 0) {
        Err(StoreError::Corrupt { what, reason, .. }) => {
            assert!(what.contains("header"), "{what}: {reason}");
        }
        other => panic!("wrong magic must be corrupt, got {other:?}"),
    }

    // Truncated directory: chop the tail off.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    match ShardStore::open_with_budget(&path, 0) {
        Err(StoreError::Corrupt { what, .. }) => {
            assert!(what.contains("directory"), "{what}");
        }
        other => panic!("truncated directory must be corrupt, got {other:?}"),
    }

    std::fs::write(&path, &pristine).unwrap();
    check_flips(&mem, &path, Order::GroupMajor);
    // Shards that span several row groups and end in a short one.
    let flat = dataset_from_rows(
        &(0..150_u32)
            .map(|i| ((i * 53) % 8192, i % 3 == 0, (i % 257) as u16, i % 2 == 1))
            .collect::<Vec<Row>>(),
    );
    let mem = ShardedDataset::from_dataset(&flat, 2 * GROUP_ROWS as usize + 5).unwrap();
    write_source(&mem, &path).unwrap();
    check_flips(&mem, &path, Order::GroupMajor);
    // The same shape in the version-2 (column-major) fixture.
    std::fs::copy(fixture("fss_v2_150x69.fss"), &path).unwrap();
    check_flips(&v2_fixture_memory(), &path, Order::ColumnMajor);
    std::fs::remove_file(path).ok();
}

/// The order of a shard block's column slices: each group's four slices
/// back to back (version 3), or each column's groups back to back
/// (version 2).
#[derive(Clone, Copy)]
enum Order {
    GroupMajor,
    ColumnMajor,
}

/// Every checksummed column slice of the store file written from `mem`,
/// from the layout `format.rs` documents (header, schema block, then per
/// shard a row count and the slices of its `GROUP_ROWS`-row groups in
/// `order`): the slice's first byte, one past its CRC, and the global rows
/// it holds.
fn group_spans(
    file: &[u8],
    mem: &ShardedDataset,
    order: Order,
) -> Vec<(usize, usize, Range<usize>)> {
    let schema_len = u32::from_le_bytes(file[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    let mut at = HEADER_LEN + 8 + schema_len as usize;
    let widths = [
        8,
        8 * mem.schema().num_features(),
        8 * mem.schema().num_fairness(),
        1,
    ];
    let group = GROUP_ROWS as usize;
    let mut spans = Vec::new();
    for shard in mem.shards() {
        at += 8;
        let groups: Vec<Range<usize>> = (0..shard.len())
            .step_by(group)
            .map(|lo| lo..(lo + group).min(shard.len()))
            .collect();
        let slices: Vec<(usize, &Range<usize>)> = match order {
            Order::GroupMajor => groups
                .iter()
                .flat_map(|rows| widths.iter().map(move |&w| (w, rows)))
                .collect(),
            Order::ColumnMajor => widths
                .iter()
                .flat_map(|&w| groups.iter().map(move |rows| (w, rows)))
                .collect(),
        };
        for (width, rows) in slices {
            let end = at + rows.len() * width + 4;
            spans.push((
                at,
                end,
                shard.offset() + rows.start..shard.offset() + rows.end,
            ));
            at = end;
        }
    }
    spans
}

/// Flip bytes through `path` (written from `mem`, its slices in `order`) at
/// a stride. Each flip is rejected at open (header, schema, directory) or
/// fails `verify()`; and a gather of one row per group through a store that
/// retains nothing either names the slice holding the flip or returns the
/// in-memory bits — never a wrong value.
fn check_flips(mem: &ShardedDataset, path: &std::path::Path, order: Order) {
    let pristine = std::fs::read(path).unwrap();
    let spans = group_spans(&pristine, mem, order);
    assert_eq!(
        spans
            .last()
            .map(|&(_, end, _)| end + 16 * mem.num_shards() + 4),
        Some(pristine.len()),
        "the spans cover the data region, then the directory"
    );
    let mut probe: Vec<usize> = spans.iter().map(|(_, _, rows)| rows.start).collect();
    probe.sort_unstable();
    probe.dedup();
    let expected = memory_rows(mem, &probe);
    for flip in (HEADER_LEN..pristine.len().saturating_sub(150)).step_by(131) {
        let mut bad = pristine.clone();
        bad[flip] ^= 0x20;
        std::fs::write(path, &bad).unwrap();
        let store = match ShardStore::open_with_budget(path, 0) {
            // Header/schema/directory corruption: rejected at open.
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Corrupt { .. }),
                    "flip at {flip}: {e}"
                );
                continue;
            }
            Ok(store) => store,
        };
        // Shard-block corruption: rejected at page-in by verify().
        let err = store
            .verify()
            .expect_err(&format!("flip at byte {flip} must fail verification"));
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "flip at {flip}: {err}"
        );
        let mut out = Dataset::empty(mem.schema().clone());
        let gathered = store.read_rows(&probe, &mut out);
        match spans
            .iter()
            .find(|(start, end, _)| (*start..*end).contains(&flip))
        {
            Some(&(start, ..)) => match gathered {
                Err(StoreError::Corrupt { offset, .. }) => {
                    assert_eq!(offset, start as u64, "flip at {flip}: not its group");
                    // The engine-facing gather keeps the location.
                    out.clear();
                    match store.gather_rows(&probe, &mut out) {
                        Err(FairError::Storage { reason }) => {
                            assert!(reason.contains(&format!("byte {start}")), "{reason}");
                        }
                        other => panic!("flip at {flip}: expected a storage error, got {other:?}"),
                    }
                }
                other => panic!("flip at {flip} in a group must be caught, got {other:?}"),
            },
            // The shard's row count, which a gather does not read.
            None => {
                gathered.unwrap_or_else(|e| panic!("flip at {flip}: {e}"));
                assert!(same_rows(&out, &expected), "flip at {flip}: wrong rows");
            }
        }
    }

    // The pristine bytes still open and verify cleanly.
    std::fs::write(path, &pristine).unwrap();
    let store = ShardStore::open_with_budget(path, 0).unwrap();
    store.verify().unwrap();
}

/// The rows `0..n` of the committed fixtures: `fss_v1_40x8.fss`, which the
/// version-1 writer produced from `dataset_from_rows(&fixture_rows(40))` at
/// shard size 8, and `fss_v2_150x69.fss`, which the version-2 writer
/// produced from `fixture_rows(150)` at shard size 69.
fn fixture_rows(n: u32) -> Vec<Row> {
    (0..n)
        .map(|i| {
            (
                (i * 37) % 8192,
                i % 3 == 0,
                ((i * 11) % 257) as u16,
                i % 2 == 0,
            )
        })
        .collect()
}

/// A version-1 file (52-byte header, one checksum per column block) opens,
/// verifies, round-trips and gathers bit for bit: it is the layout with one
/// row group per shard, read by the same decoder.
#[test]
fn version_1_files_open_verify_and_gather() {
    let path = fixture("fss_v1_40x8.fss");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        &bytes[..6],
        b"FSS1\x01\x00",
        "the fixture is a version-1 file"
    );
    let mem = ShardedDataset::from_dataset(&dataset_from_rows(&fixture_rows(40)), 8).unwrap();

    let store = ShardStore::open_with_budget(&path, 0).unwrap();
    assert_eq!(store.len(), 40);
    assert_eq!(store.shard_size(), 8);
    assert_eq!(store.num_shards(), 5);
    assert_eq!(**store.schema(), **mem.schema());
    // Two rows in shard 1, then shards 4, 0 and 1 again.
    let rows = [12, 9, 39, 32, 3, 1, 15];
    let mut out = Dataset::empty(mem.schema().clone());
    store.gather_rows(&rows, &mut out).unwrap();
    assert!(same_rows(&out, &memory_rows(&mem, &rows)));
    let stats = store.cache_stats();
    assert_eq!(stats.sparse_groups, 4, "one group per shard run");
    assert_eq!(stats.misses, 0);

    store.verify().unwrap();
    for i in 0..mem.num_shards() {
        let disk = store.read_shard(i).unwrap();
        let rows: Vec<usize> = (i * 8..i * 8 + mem.shard(i).len()).collect();
        assert!(same_rows(&disk, &memory_rows(&mem, &rows)), "shard {i}");
    }
}

/// `tests/fixtures/<name>`.
fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// The in-memory cohort `fss_v2_150x69.fss` holds: full shards of 69 rows
/// (groups of 32, 32 and 5) and a final shard of 12.
fn v2_fixture_memory() -> ShardedDataset {
    ShardedDataset::from_dataset(&dataset_from_rows(&fixture_rows(150)), 69).unwrap()
}

/// A version-2 file (row groups stored column-major) opens, verifies,
/// sweeps and gathers bit for bit through the same decoder, which takes
/// every slice's offset from the block layout.
#[test]
fn version_2_files_open_verify_and_gather() {
    let path = fixture("fss_v2_150x69.fss");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        &bytes[..6],
        &[b'F', b'S', b'S', b'1', VERSION_2 as u8, 0],
        "the fixture is a version-2 file"
    );
    let mem = v2_fixture_memory();

    let store = ShardStore::open_with_budget(&path, 0).unwrap();
    assert_eq!(store.len(), 150);
    assert_eq!(store.shard_size(), 69);
    assert_eq!(store.num_shards(), 3);
    assert_eq!(**store.schema(), **mem.schema());
    store.verify().unwrap();
    for i in 0..mem.num_shards() {
        let disk = store.read_shard(i).unwrap();
        let rows: Vec<usize> = (i * 69..i * 69 + mem.shard(i).len()).collect();
        assert!(same_rows(&disk, &memory_rows(&mem, &rows)), "shard {i}");
    }

    // Across group, shard and short-group boundaries, then back into
    // shard 0: groups 0-2 of shard 0, 0 and 2 of shard 1, 0 of the short
    // final shard, and group 1 of shard 0 again.
    let rows = [0, 31, 32, 64, 68, 69, 137, 138, 149, 40];
    let store = ShardStore::open_with_budget(&path, 0).unwrap();
    let mut out = Dataset::empty(mem.schema().clone());
    store.gather_rows(&rows, &mut out).unwrap();
    assert!(same_rows(&out, &memory_rows(&mem, &rows)));
    let stats = store.cache_stats();
    assert_eq!(stats.sparse_groups, 3 + 2 + 1 + 1);
    assert_eq!(stats.misses, 0);

    // The writer writes the current version, which reads back the same.
    let copy = temp_path("v2_rewrite");
    write_source(&store, &copy).unwrap();
    let rewritten = std::fs::read(&copy).unwrap();
    assert_eq!(rewritten[4..6], VERSION.to_le_bytes());
    assert_eq!(rewritten.len(), bytes.len(), "the same bytes per row");
    let store = ShardStore::open_with_budget(&copy, 0).unwrap();
    out.clear();
    store.gather_rows(&rows, &mut out).unwrap();
    assert!(same_rows(&out, &memory_rows(&mem, &rows)));
    std::fs::remove_file(copy).ok();
}

/// Zero shard sizes are structured errors at every layer (regression for the
/// satellite fix: no panics).
#[test]
fn zero_shard_size_is_rejected_everywhere() {
    let flat = dataset_from_rows(&[(1, true, 3, false), (2, false, 5, true)]);
    assert!(matches!(
        ShardedDataset::from_dataset(&flat, 0),
        Err(FairError::InvalidConfig { .. })
    ));
    assert!(matches!(
        ShardedDataset::with_shard_size(flat.schema().clone(), 0),
        Err(FairError::InvalidConfig { .. })
    ));
    assert!(matches!(
        StoreWriter::create(temp_path("zero"), flat.schema().clone(), 0),
        Err(StoreError::InvalidConfig { .. })
    ));
    let generator = SchoolGenerator::new(SchoolConfig::small(10, 1));
    assert!(generator.generate_sharded(0).is_err());
    let compas = CompasGenerator::new(CompasConfig::small(10, 1));
    assert!(compas.generate_sharded(0).is_err());
}
