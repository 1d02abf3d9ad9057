//! The process-wide registry series against the instances that count into
//! them.
//!
//! Every shard store and fleet coordinator keeps its own exact counts
//! (`CacheStats`, `FleetReport`), and `GET /metrics` renders their sum over
//! the process: the `fair_store_*` and `fair_fleet_*` series the end-to-end
//! benchmark scrapes. The sums must hold for instances already dropped too,
//! and a dropped store's resident bytes, like a finished request's share of
//! `fair_serve_in_flight`, must leave its gauge.
//!
//! This binary holds a single test, so no concurrent test moves the global
//! registry between the readings it compares.

use fair_ranking::core::obs;
use fair_ranking::prelude::*;
use fair_ranking::serve::{serve, AuditService, Client, FleetConfig, FleetCoordinator};
use fair_ranking::store::column_bytes;
use std::net::SocketAddr;

const ROWS: usize = 4_000;
const SHARD_SIZE: usize = 256;
const SEED: u64 = 17;
const RUBRIC_WEIGHTS: [f64; 2] = [0.55, 0.45];

/// The store counters `/metrics` exposes, in [`store_counts`] order.
const STORE_SERIES: [&str; 4] = [
    "fair_store_cache_hits_total",
    "fair_store_cache_misses_total",
    "fair_store_cache_evictions_total",
    "fair_store_sparse_groups_total",
];

fn store_counts(stats: &CacheStats) -> [u64; 4] {
    [
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.sparse_groups,
    ]
}

fn store_series() -> [u64; 4] {
    STORE_SERIES.map(|name| obs::counter(name, &[]).get())
}

#[test]
fn process_series_sum_every_instance_dropped_ones_included() {
    let in_flight = obs::gauge("fair_serve_in_flight", &[]);
    let in_flight_before = in_flight.get();

    // Two stores over one file, each swept twice (misses, evictions, then
    // hits on the shards index-order eviction keeps) and gathered from
    // (hits on resident shards, row groups read from the others).
    let cohort = SchoolGenerator::new(SchoolConfig::small(ROWS, SEED))
        .generate_sharded(SHARD_SIZE)
        .unwrap()
        .into_dataset();
    let dir = std::env::temp_dir().join("fair_obs_process_series");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("cohort_{}.fss", std::process::id()));
    write_source(&cohort, &path).unwrap();
    let shard_bytes = column_bytes(cohort.shard(0).data());
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let bonus = vec![1.0; cohort.schema().num_fairness()];
    let rows = [0, 1, 300, 2_047, 3_000, 3_999];

    let series_before = store_series();
    let resident = obs::gauge("fair_store_resident_bytes", &[]);
    let resident_before = resident.get();
    let kept = ShardStore::open_with_budget(&path, 4 * shard_bytes).unwrap();
    let dropped = ShardStore::open_with_budget(&path, 2 * shard_bytes).unwrap();
    for store in [&kept, &dropped] {
        for _ in 0..2 {
            let _ = effective_scores(store, &ranker, &bonus);
        }
        let mut out = Dataset::empty(store.schema().clone());
        store.read_rows(&rows, &mut out).unwrap();
        assert_eq!(out.len(), rows.len());
    }
    let (kept_stats, dropped_stats) = (kept.cache_stats(), dropped.cache_stats());
    assert_ne!(kept_stats, dropped_stats, "the budgets part the stores");
    for (stats, name) in [(&kept_stats, "kept"), (&dropped_stats, "dropped")] {
        assert!(
            store_counts(stats).iter().all(|&c| c > 0),
            "{name} store counts every signal: {stats:?}"
        );
        assert!(stats.resident_bytes > 0, "{name}: {stats:?}");
    }
    assert_eq!(
        resident.get() - resident_before,
        i64::try_from(kept_stats.resident_bytes + dropped_stats.resident_bytes).unwrap(),
        "the resident gauge sums the open stores"
    );
    drop(dropped);
    let series_after = store_series();
    let (kept_counts, dropped_counts) = (store_counts(&kept_stats), store_counts(&dropped_stats));
    for (i, name) in STORE_SERIES.iter().enumerate() {
        assert_eq!(
            series_after[i] - series_before[i],
            kept_counts[i] + dropped_counts[i],
            "{name} sums both stores, the dropped one included"
        );
    }
    assert_eq!(
        resident.get() - resident_before,
        i64::try_from(kept.cache_stats().resident_bytes).unwrap(),
        "a dropped store's resident bytes leave the gauge"
    );
    drop(kept);
    assert_eq!(resident.get(), resident_before);
    let _ = std::fs::remove_file(&path);

    // Two coordinators over the same two in-process workers.
    let servers: Vec<_> = (0..2)
        .map(|_| serve(AuditService::new(), "127.0.0.1:0", 2).unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();
    for &addr in &addrs {
        Client::new(addr)
            .register_synthetic("cohort", "school", ROWS, SEED, SHARD_SIZE)
            .unwrap();
    }
    let requests = obs::counter("fair_fleet_requests_total", &[]);
    let requests_before = requests.get();
    let kept = FleetCoordinator::connect("cohort", &addrs, FleetConfig::default()).unwrap();
    let dropped = FleetCoordinator::connect("cohort", &addrs, FleetConfig::default()).unwrap();
    kept.disparity(0.1, &bonus, Some(&RUBRIC_WEIGHTS)).unwrap();
    let config = DcaConfig {
        sample_size: 200,
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        seed: SEED,
        ..DcaConfig::default()
    };
    dropped
        .run_core_dca(0.1, Some(&RUBRIC_WEIGHTS), &config, None, false)
        .unwrap();
    let (kept_requests, dropped_requests) = (kept.report().requests, dropped.report().requests);
    assert_ne!(
        kept_requests, dropped_requests,
        "the coordinators count apart"
    );
    drop(dropped);
    assert_eq!(
        requests.get() - requests_before,
        kept_requests + dropped_requests,
        "fair_fleet_requests_total sums both coordinators, the dropped one included"
    );

    for server in servers {
        server.shutdown();
    }
    assert_eq!(
        in_flight.get(),
        in_flight_before,
        "every finished request leaves fair_serve_in_flight"
    );
}
