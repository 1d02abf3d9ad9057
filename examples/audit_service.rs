//! The audit service end to end: start `fair-serve` in-process on an
//! ephemeral port, register an on-disk cohort store, audit it over the wire,
//! run a background Full-DCA job to completion, cancel a second long job
//! mid-run, and shut down cleanly.
//!
//! ```sh
//! cargo run --release --example audit_service
//! ```
//!
//! This is also the CI smoke job for the serving layer: every step asserts,
//! so a wire-format or lifecycle regression fails the run.

use fair_ranking::data::store::school_to_store;
use fair_ranking::prelude::*;
use fair_ranking::serve::{serve, AuditService, Client, JobKind, JobRequest, MetricsRequest};
use std::time::{Duration, Instant};

const ROWS: usize = 20_000;
const K: f64 = 0.05;
const RUBRIC_WEIGHTS: [f64; 2] = [0.55, 0.45];

fn main() {
    // 1. Stream a synthetic school cohort onto disk (never materialized).
    let path = std::env::temp_dir().join(format!("audit_service_{}.fss", std::process::id()));
    let generator = SchoolGenerator::new(SchoolConfig::small(ROWS, 7));
    let summary = school_to_store(&generator, DEFAULT_SHARD_SIZE, &path).expect("write store");
    println!(
        "wrote {} rows in {} shards -> {}",
        summary.rows,
        summary.shards,
        path.display()
    );

    // 2. Start the service on an ephemeral port and register the store.
    let workers = fair_ranking::core::max_workers().min(8);
    let server = serve(AuditService::new(), "127.0.0.1:0", workers).expect("bind service");
    println!(
        "fair-serve listening on {} ({workers} workers)",
        server.addr()
    );
    let client = Client::new(server.addr());
    client.health().expect("health check");
    let info = client
        .register_disk_store("school", path.to_str().expect("utf8 path"))
        .expect("register store");
    assert_eq!(info.rows, ROWS);
    let (features, fairness) = client.schema("school").expect("schema");
    println!("registered `school`: features {features:?}, fairness {fairness:?}");

    // 3. Synchronous audit: baseline disparity + nDCG at k over the wire.
    let baseline = client
        .metrics(
            "school",
            &MetricsRequest {
                k: K,
                bonus: None,
                weights: Some(RUBRIC_WEIGHTS.to_vec()),
                metrics: Some(vec!["disparity".into(), "ndcg".into()]),
            },
        )
        .expect("baseline metrics");
    let baseline_disparity = baseline.disparity.expect("disparity");
    println!("baseline disparity@{K}: {baseline_disparity:?}");
    assert!(
        norm(&baseline_disparity) > 0.05,
        "the synthetic cohort is built biased"
    );

    // 4. Launch a Full-DCA job, watch its progress, and fetch the result.
    let job = client
        .submit_job(&JobRequest {
            store: "school".into(),
            kind: JobKind::Full,
            k: K,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 77,
            sample_size: None,
            learning_rates: Some(vec![8.0, 1.0]),
            iterations_per_rate: Some(15),
            workers: None,
        })
        .expect("submit job");
    println!("launched {} ({} steps total)", job.id, job.total_steps);
    let start = Instant::now();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(300))
        .expect("job finishes");
    assert_eq!(done.state, "completed", "job error: {:?}", done.error);
    let result = done.result.expect("completed jobs carry a result");
    println!(
        "{} completed in {:.1?}: bonus {:?} ({} objects scored)",
        done.id,
        start.elapsed(),
        result.bonus,
        result.objects_scored
    );

    // 5. The learned bonus actually closes the gap — audit again through the
    //    wire with the job's bonus applied.
    let after = client
        .metrics(
            "school",
            &MetricsRequest {
                k: K,
                bonus: Some(result.bonus.clone()),
                weights: Some(RUBRIC_WEIGHTS.to_vec()),
                metrics: Some(vec!["disparity".into(), "ndcg".into()]),
            },
        )
        .expect("post-DCA metrics");
    let after_disparity = after.disparity.expect("disparity");
    println!(
        "disparity after DCA: {after_disparity:?} (norm {:.4} -> {:.4}), nDCG {:.4}",
        norm(&baseline_disparity),
        norm(&after_disparity),
        after.ndcg.expect("ndcg")
    );
    assert!(
        norm(&after_disparity) < norm(&baseline_disparity) * 0.5,
        "DCA must cut the disparity norm at least in half"
    );

    // 6. A second, long job is cancellable mid-run.
    let long_job = client
        .submit_job(&JobRequest {
            store: "school".into(),
            kind: JobKind::Full,
            k: K,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 78,
            sample_size: None,
            learning_rates: Some(vec![4.0, 2.0, 1.0]),
            iterations_per_rate: Some(10_000),
            workers: None,
        })
        .expect("submit long job");
    loop {
        let view = client.job(&long_job.id).expect("job status");
        if view.step >= 3 || view.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel_job(&long_job.id).expect("cancel");
    let cancelled = client
        .wait_for_job(&long_job.id, Duration::from_secs(60))
        .expect("cancellation lands");
    assert_eq!(cancelled.state, "cancelled");
    println!(
        "{} cancelled after {} of {} steps",
        cancelled.id, cancelled.step, cancelled.total_steps
    );

    // 7. Clean shutdown: drains request workers, joins every job thread.
    server.shutdown();
    println!("server shut down cleanly");
    std::fs::remove_file(&path).ok();
}
