//! The fleet coordinator end to end: start two `fair-serve` workers
//! in-process on ephemeral ports, drive a Full-DCA descent through the
//! partial-reduce protocol, survive an injected 500 burst, then kill one
//! worker outright and finish the audit on the survivor — every trajectory
//! bit-identical to the local sharded runner.
//!
//! ```sh
//! cargo run --release --example fleet_audit
//! ```
//!
//! This is also the CI smoke job for the fleet layer: every step asserts,
//! so a placement, retry, or re-dispatch regression fails the run.

use fair_ranking::core::fault::{install, FaultPlan};
use fair_ranking::prelude::*;
use fair_ranking::serve::{serve, AuditService, Client, FleetConfig, FleetCoordinator};
use std::time::{Duration, Instant};

const ROWS: usize = 20_000;
const SEED: u64 = 7;
const K: f64 = 0.05;
const RUBRIC_WEIGHTS: [f64; 2] = [0.55, 0.45];
/// Fine enough that a 20k-row cohort spreads across both workers (the
/// default 64Ki shard size would leave worker 1 an empty range).
const SHARD_SIZE: usize = 2048;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    // 1. Two workers, each holding the same deterministic cohort.
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..2 {
        let server = serve(AuditService::new(), "127.0.0.1:0", 4).expect("bind worker");
        Client::new(server.addr())
            .register_synthetic("cohort", "school", ROWS, SEED, SHARD_SIZE)
            .expect("register cohort");
        println!("worker {i} listening on {}", server.addr());
        addrs.push(server.addr());
        handles.push(server);
    }

    // 2. The coordinator splits the shards across the fleet.
    let fleet = FleetCoordinator::connect(
        "cohort",
        &addrs,
        FleetConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            ..FleetConfig::default()
        },
    )
    .expect("connect fleet");
    println!(
        "placement: {} shards over {} workers -> {:?}",
        fleet.placement().num_shards(),
        fleet.placement().num_workers(),
        fleet.placement().assignments()
    );
    assert!(
        fleet.placement().assignments().len() == 2,
        "both workers own a non-empty range"
    );

    // The same cohort, built locally: the reference for every bit-identity
    // check below.
    let local = SchoolGenerator::new(SchoolConfig::small(ROWS, SEED))
        .generate_sharded(SHARD_SIZE)
        .expect("local cohort")
        .into_dataset();
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).expect("ranker");

    // 3. A distributed Full-DCA descent, bit-identical to the local runner.
    let config = DcaConfig {
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 15,
        refinement_iterations: 0,
        seed: 77,
        ..DcaConfig::default()
    };
    let start = Instant::now();
    let fleet_full = fleet
        .run_full_dca(K, Some(&RUBRIC_WEIGHTS), &config, None, false)
        .expect("fleet full DCA");
    let lib_full = run_full_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(K),
        &config,
        None,
        false,
    )
    .expect("local full DCA");
    assert_eq!(
        bits(&fleet_full.bonus),
        bits(&lib_full.bonus),
        "fleet trajectory == run_full_dca_sharded, bit for bit"
    );
    println!(
        "full DCA over the fleet in {:.1?}: bonus {:?} ({} steps)",
        start.elapsed(),
        fleet_full.bonus,
        fleet_full.steps
    );

    // 4. An injected 500 burst: the coordinator retries and fails ranges
    //    over, and the trajectory does not move by a bit.
    install(FaultPlan::parse("serve@partials:500:2").expect("fault spec"));
    let core_config = DcaConfig {
        sample_size: 400,
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 10,
        refinement_iterations: 0,
        seed: 91,
        ..DcaConfig::default()
    };
    let fleet_core = fleet
        .run_core_dca(K, Some(&RUBRIC_WEIGHTS), &core_config, None, false)
        .expect("fleet core DCA under faults");
    install(FaultPlan::none());
    let lib_core = run_core_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(K),
        &core_config,
        None,
        false,
    )
    .expect("local core DCA");
    assert_eq!(
        bits(&fleet_core.bonus),
        bits(&lib_core.bonus),
        "an injected 500 burst must not change the trajectory"
    );
    let after_faults = fleet.report();
    assert!(
        after_faults.retries + after_faults.re_dispatches >= 2,
        "both injected 500s were absorbed: {after_faults:?}"
    );
    println!("core DCA survived an injected 500 burst: {after_faults:?}");

    // 5. Kill worker 1 outright: its range re-dispatches to worker 0 and the
    //    audit completes in degraded single-node mode.
    handles.remove(1).shutdown();
    println!("worker 1 killed; re-running the descent on the survivor");
    let survivor_full = fleet
        .run_full_dca(K, Some(&RUBRIC_WEIGHTS), &config, None, false)
        .expect("degraded full DCA");
    assert_eq!(
        bits(&survivor_full.bonus),
        bits(&lib_full.bonus),
        "losing a worker must not change the trajectory"
    );
    let report = fleet.report();
    assert!(
        report.re_dispatches > after_faults.re_dispatches,
        "the dead worker's range moved to the survivor: {report:?}"
    );
    assert!(
        fleet.workers().iter().any(|w| !w.healthy),
        "the dead worker is ejected from the rotation"
    );
    println!("degraded run matched bit for bit: {report:?}");

    // 6. Clean shutdown of the survivor.
    for h in handles {
        h.shutdown();
    }
    println!("fleet audit PASS");
}
