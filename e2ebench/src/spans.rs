//! Span recording for the traced run.
//!
//! The benchmark opens a span around each of its calls into a layer and
//! keeps the spans in memory. When the run ends, the servers' `FAIR_LOG=json`
//! records (request spans, job events) are read back, joined to the client
//! spans by trace id and time containment, and everything is written as one
//! JSON object per line with its parent and self time: the span's duration
//! minus the time its children cover.

use fair_serve::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Source of the spans the benchmark records itself.
const CLIENT: &str = "client";
/// Role of the fleet coordinator, the one server that calls other servers.
pub const COORDINATOR: &str = "coordinator";

/// Wall-clock µs since the epoch: the clock the server logs stamp with.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    trace: String,
    source: String,
    name: String,
    start_us: u64,
    end_us: u64,
}

/// In-memory span store; inert (records nothing) when tracing is off.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

/// What the joined span set says, for the run's report.
#[derive(Debug, Default)]
pub struct SpanSummary {
    pub client_spans: usize,
    pub server_records: usize,
    /// Server records whose trace id matches a client span's.
    pub joined: usize,
    /// `(source/name, count, total self µs)`, largest self time first.
    pub self_time: Vec<(String, usize, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a client span; `None` when tracing is off.
    pub fn open(&self, name: &str, trace: &str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            parent,
            trace: trace.to_string(),
            source: CLIENT.to_string(),
            name: name.to_string(),
            start_us: now_us(),
            end_us: 0,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans.lock().expect("span store poisoned")[id].end_us = now_us();
        }
    }

    /// Run `f` inside a client span.
    pub fn scoped<T>(
        &self,
        name: &str,
        trace: &str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let id = self.open(name, trace, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Join the server logs (`(role, path)`) to the client spans and write
    /// the span file.
    pub fn finish(self, logs: &[(String, PathBuf)], out: &Path) -> Result<SpanSummary, String> {
        let mut spans = self.spans.into_inner().expect("span store poisoned");
        let client_spans = spans.len();
        for (role, path) in logs {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            spans.extend(text.lines().filter_map(|line| server_record(role, line)));
        }
        let server_records = spans.len() - client_spans;
        let client_traces: std::collections::HashSet<&str> = spans[..client_spans]
            .iter()
            .map(|s| s.trace.as_str())
            .collect();
        let joined = spans[client_spans..]
            .iter()
            .filter(|s| client_traces.contains(s.trace.as_str()))
            .count();

        // A server's request span was caused by one call of its trace: for
        // a worker, the coordinator span it overlaps most, if any; else the
        // client span that matches it best in time (largest overlap over
        // union; the server closes its span only after writing the
        // response, so containment is not exact). Any other server record
        // (a fan-out round, a descent step event) is work of the client
        // operation whose span covers it.
        let mut by_trace: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.end_us > s.start_us {
                by_trace.entry(s.trace.as_str()).or_default().push(i);
            }
        }
        let parents: Vec<Option<usize>> = (client_spans..spans.len())
            .map(|i| {
                let s = &spans[i];
                let cands = by_trace.get(s.trace.as_str())?.iter().copied();
                if s.name == "serve.request" {
                    let best = |source: &str, score: fn(&Span, &Span) -> f64| {
                        cands
                            .clone()
                            .filter(|&j| spans[j].source == source)
                            .map(|j| (j, score(&spans[j], s)))
                            .filter(|&(_, score)| score > 0.0)
                            .max_by(|a, b| a.1.total_cmp(&b.1))
                            .map(|(j, _)| j)
                    };
                    (s.source != COORDINATOR)
                        .then(|| best(COORDINATOR, overlap))
                        .flatten()
                        .or_else(|| best(CLIENT, match_score))
                } else {
                    cands
                        .filter(|&j| {
                            let p = &spans[j];
                            p.source == CLIENT
                                && p.parent.is_none()
                                && p.start_us <= s.start_us
                                && p.end_us >= s.end_us
                        })
                        .min_by_key(|&j| spans[j].end_us - spans[j].start_us)
                }
            })
            .collect();
        for (offset, parent) in parents.into_iter().enumerate() {
            spans[client_spans + offset].parent = parent;
        }

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut lines = String::new();
        let mut totals: HashMap<String, (usize, u64)> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let self_us = self_time(s, children[i].iter().map(|&c| &spans[c]));
            let entry = totals
                .entry(format!("{}/{}", s.source, s.name))
                .or_insert((0, 0));
            entry.0 += 1;
            entry.1 += self_us;
            let record = Json::Obj(vec![
                ("id".into(), Json::num(i as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("trace".into(), Json::str(s.trace.clone())),
                ("source".into(), Json::str(s.source.clone())),
                ("name".into(), Json::str(s.name.clone())),
                ("start_us".into(), Json::u64(s.start_us)),
                ("end_us".into(), Json::u64(s.end_us)),
                ("self_us".into(), Json::u64(self_us)),
            ]);
            lines.push_str(&record.render());
            lines.push('\n');
        }
        std::fs::write(out, lines).map_err(|e| format!("{}: {e}", out.display()))?;
        let mut self_time: Vec<(String, usize, u64)> =
            totals.into_iter().map(|(k, (n, us))| (k, n, us)).collect();
        self_time.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        Ok(SpanSummary {
            client_spans,
            server_records,
            joined,
            self_time,
        })
    }
}

/// One `FAIR_LOG=json` line as a span (events become zero-length spans).
/// Lines without a trace id (startup, catalog) are skipped.
fn server_record(role: &str, line: &str) -> Option<Span> {
    let json = Json::parse(line).ok()?;
    let field = |k: &str| json.get(k).and_then(Json::as_str);
    let trace = field("trace")?.to_string();
    let end_us = json.get("ts_us").and_then(Json::as_u64)?;
    let duration = json.get("duration_us").and_then(Json::as_u64).unwrap_or(0);
    Some(Span {
        parent: None,
        trace,
        source: role.to_string(),
        name: field("target")?.to_string(),
        start_us: end_us.saturating_sub(duration),
        end_us,
    })
}

/// µs during which both spans are open.
fn overlap(a: &Span, b: &Span) -> f64 {
    a.end_us
        .min(b.end_us)
        .saturating_sub(a.start_us.max(b.start_us)) as f64
}

/// [`overlap`] over the time either span is open.
fn match_score(a: &Span, b: &Span) -> f64 {
    let union = a.end_us.max(b.end_us) - a.start_us.min(b.start_us);
    if union == 0 {
        0.0
    } else {
        overlap(a, b) / union as f64
    }
}

/// Duration of `span` minus the union of its children's intervals (clipped
/// to the span).
fn self_time<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_us;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.end_us
        .saturating_sub(span.start_us)
        .saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64, end_us: u64) -> Span {
        Span {
            parent: None,
            trace: "t".into(),
            source: "client".into(),
            name: "s".into(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, 100);
        let kids = [span(10, 30), span(20, 40), span(90, 120)];
        assert_eq!(self_time(&parent, kids.iter()), 100 - 30 - 10);
    }

    #[test]
    fn server_lines_join_by_trace_and_containment() {
        let dir = std::env::temp_dir().join(format!("e2ebench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("server.log");
        let t = now_us();
        std::fs::write(
            &log,
            format!(
                "{{\"kind\":\"span\",\"target\":\"serve.request\",\"ts_us\":{},\"duration_us\":5,\"trace\":\"abc\"}}\n\
                 {{\"kind\":\"event\",\"target\":\"serve.start\",\"ts_us\":{t}}}\n",
                t + 50
            ),
        )
        .unwrap();
        let tracer = Tracer::new(true);
        tracer.spans.lock().unwrap().push(Span {
            trace: "abc".into(),
            ..span(t, t + 100)
        });
        let out = dir.join("spans.jsonl");
        let summary = tracer
            .finish(&[("server".into(), log.clone())], &out)
            .unwrap();
        assert_eq!(
            (summary.client_spans, summary.server_records, summary.joined),
            (1, 1, 1)
        );
        let text = std::fs::read_to_string(&out).unwrap();
        let server = Json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(server.get("parent").and_then(Json::as_u64), Some(0));
        let client = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(client.get("self_us").and_then(Json::as_u64), Some(95));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
