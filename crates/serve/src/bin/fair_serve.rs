//! The `fair-serve` binary: stand up the audit service from the shell.
//!
//! ```text
//! fair-serve [--addr 127.0.0.1:8377] [--workers N] [--register name=path.fss]...
//! ```
//!
//! Binds the address (port `0` picks an ephemeral port, printed on stdout so
//! scripts can discover it), registers any `--register`ed stores, and serves
//! until the process is killed. `FAIR_THREADS` caps both the request workers
//! and the evaluation engine's per-request parallelism; `FAIR_CACHE_BYTES`
//! bounds each disk store's resident shard cache.

use fair_core::obs;
use fair_serve::{drain_deadline, serve, AuditService};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:8377".to_string();
    let mut workers = fair_core::max_workers();
    let mut registrations: Vec<(String, String)> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--addr needs a value"));
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| usage("--workers needs a positive integer"));
            }
            "--register" => {
                i += 1;
                let spec = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--register needs name=path"));
                match spec.split_once('=') {
                    Some((name, path)) => registrations.push((name.to_string(), path.to_string())),
                    None => usage("--register needs name=path"),
                }
            }
            "--help" | "-h" => {
                println!(
                    "fair-serve — concurrent fairness-audit service\n\n\
                     USAGE: fair-serve [--addr HOST:PORT] [--workers N] [--register name=path.fss]...\n\n\
                     Endpoints: GET /health | GET /metrics | GET /stores | POST /stores | DELETE /stores/{{name}}\n\
                     | GET /stores/{{name}}/schema|stats | POST /stores/{{name}}/metrics|partials\n\
                     | POST /jobs | GET /jobs | GET /jobs/{{id}} | GET /jobs/{{id}}/profile | DELETE /jobs/{{id}}\n\n\
                     Knobs: FAIR_THREADS (worker + engine pool cap), FAIR_CACHE_BYTES (shard cache budget),\n\
                     FAIR_SHARD_SIZE (layout of generated cohorts), FAIR_LOG=off|text|json (span/event log)."
                );
                return;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let service = AuditService::new();
    for (name, path) in &registrations {
        match service.catalog.register_disk(name, path) {
            // `catalog.register` already emitted the structured event; this
            // path only has to fail loudly.
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: cannot register `{name}`: {}", e.message);
                std::process::exit(1);
            }
        }
    }

    let server = match serve(service, addr.as_str(), workers) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // One structured line with every resolved knob, so a log collector can
    // reconstruct the process configuration without scraping the CLI.
    obs::Event::new("serve.start")
        .field("addr", server.addr())
        .field("workers", workers)
        .field("stores", registrations.len())
        .field("drain_ms", drain_deadline().as_millis() as u64)
        .field("cache_bytes", fair_store::default_cache_bytes())
        .field("prefetch", fair_store::default_prefetch())
        .emit();
    // Scripted callers parse this line to find the ephemeral port.
    println!(
        "fair-serve listening on {} ({workers} workers)",
        server.addr()
    );
    server.join();
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\nrun `fair-serve --help` for usage");
    std::process::exit(2);
}
