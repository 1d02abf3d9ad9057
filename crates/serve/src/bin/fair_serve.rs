//! The `fair-serve` binary: stand up the audit service from the shell.
//!
//! ```text
//! fair-serve [--addr 127.0.0.1:8377] [--workers N] [--register name=path.fss]...
//! ```
//!
//! Binds the address (port `0` picks an ephemeral port, printed on stdout so
//! scripts can discover it), registers any `--register`ed stores, and serves
//! until the process is killed. `FAIR_THREADS` caps both the request workers
//! and the evaluation engine's per-request parallelism. `FAIR_CACHE_BYTES`
//! bounds each disk store's resident shard cache: it is read once, here, and
//! a value that is not a byte count exits with status 2.

use fair_core::obs;
use fair_serve::{serve, AuditService};
use fair_store::DEFAULT_CACHE_BYTES;

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
                     Environment: FAIR_THREADS (worker + engine pool cap),\n\
                     FAIR_CACHE_BYTES (shard cache budget per disk store in bytes, default {DEFAULT_CACHE_BYTES}),\n\
                     FAIR_LOG=off|text|json (span/event log)."
                );
                return;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let cache_bytes =
        std::env::var_os("FAIR_CACHE_BYTES").map(|v| v.to_string_lossy().into_owned());
    let cache_bytes = parse_cache_bytes(cache_bytes.as_deref()).unwrap_or_else(|e| usage(&e));
    let service = AuditService::with_cache_bytes(cache_bytes);
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
    // One structured line with every resolved setting, so a log collector
    // can reconstruct the process configuration without scraping the CLI.
    obs::Event::new("serve.start")
        .field("addr", server.addr())
        .field("workers", workers)
        .field("stores", registrations.len())
        .field("cache_bytes", cache_bytes)
        .emit();
    // Scripted callers parse this line to find the ephemeral port.
    println!(
        "fair-serve listening on {} ({workers} workers)",
        server.addr()
    );
    server.join();
}

/// The per-store shard-cache budget from the `FAIR_CACHE_BYTES` value:
/// unset or blank means [`DEFAULT_CACHE_BYTES`], anything else must be an
/// unsigned byte count.
fn parse_cache_bytes(value: Option<&str>) -> Result<usize, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(DEFAULT_CACHE_BYTES),
        Some(v) => v
            .parse()
            .map_err(|_| format!("FAIR_CACHE_BYTES must be a byte count, got `{v}`")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\nrun `fair-serve --help` for usage");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bytes_is_a_plain_byte_count_or_the_default() {
        assert_eq!(parse_cache_bytes(None), Ok(DEFAULT_CACHE_BYTES));
        assert_eq!(parse_cache_bytes(Some("0")), Ok(0));
        assert_eq!(parse_cache_bytes(Some(" 65536 ")), Ok(65_536));
        for bad in ["64M", "-1"] {
            let message = parse_cache_bytes(Some(bad)).unwrap_err();
            assert!(message.contains("FAIR_CACHE_BYTES") && message.contains(bad));
        }
    }
}
