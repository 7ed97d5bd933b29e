//! Per-layer metrics of a traced pass, read from the recorder snapshot.
//!
//! The benchmark opens its own spans around each public call (`request`,
//! `parse`, `dag`, `synthesize`, `submit`, `wait`, `verify`, `emit`,
//! `sabre`, and `setup` with `device` inside). The program's own `encode`,
//! `extend`, `iteration`, `fork` and `job` spans nest under them. Times
//! and counts are per request unless the name says otherwise.

use crate::pipeline::Pass;
use crate::stats::{percentile, Outcome, Tally};
use crate::Metric;
use olsq2_obs::{FieldValue, SpanData, TraceSnapshot};
use std::collections::HashMap;

/// The spans of the program's encoding and search layers.
const LAYER_SPANS: [&str; 4] = ["encode", "extend", "iteration", "fork"];

/// Constraint families of the encoder.
const FAMILIES: [&str; 6] = [
    "mapping",
    "scheduling",
    "swap",
    "transition",
    "dependency",
    "cardinality",
];

/// Inputs besides the snapshot.
pub struct TracedRun<'a> {
    /// The traced pass.
    pub pass: &'a Pass,
    /// Mean wall time of the same pass without tracing.
    pub untraced_wall_s: f64,
    /// `(SABRE objective, OLSQ2 objective)` per request with a layout.
    pub sabre_objectives: &'a [(usize, usize)],
    /// Service workers (0 without a service).
    pub workers: usize,
}

struct Spans<'a> {
    by_id: HashMap<u64, &'a SpanData>,
    all: &'a [SpanData],
}

impl<'a> Spans<'a> {
    fn new(all: &'a [SpanData]) -> Spans<'a> {
        Spans {
            by_id: all.iter().map(|s| (s.id, s)).collect(),
            all,
        }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a SpanData> + 'a {
        self.all.iter().filter(move |s| s.name == name)
    }

    fn parent_name(&self, span: &SpanData) -> Option<&'a str> {
        let parent = self.by_id.get(&span.parent?)?;
        Some(parent.name.as_str())
    }

    /// Whether a span of `names` encloses `span`.
    fn inside(&self, span: &SpanData, names: &[&str]) -> bool {
        let mut cursor = span.parent;
        while let Some(id) = cursor {
            let Some(parent) = self.by_id.get(&id) else {
                return false;
            };
            if names.contains(&parent.name.as_str()) {
                return true;
            }
            cursor = parent.parent;
        }
        false
    }
}

fn dur_ms(span: &SpanData) -> f64 {
    span.dur_us.unwrap_or(0) as f64 / 1000.0
}

fn sum_ms<'a>(spans: impl Iterator<Item = &'a SpanData>) -> f64 {
    spans.map(dur_ms).fold(0.0, |total, ms| total + ms)
}

fn field_u64(span: &SpanData, key: &str) -> u64 {
    span.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

fn field_str<'a>(span: &'a SpanData, key: &str) -> Option<&'a str> {
    span.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Computes every per-layer metric, in the order of `BENCHMARK.json`.
pub fn per_layer(snapshot: &TraceSnapshot, run: &TracedRun) -> Vec<Metric> {
    let spans = Spans::new(&snapshot.spans);
    let requests = run.pass.records.len().max(1) as f64;
    let per_request = |v: f64| v / requests;
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };

    push(
        "circuit.parse_ms",
        per_request(sum_ms(spans.named("parse"))),
        "ms",
    );
    push(
        "circuit.dag_ms",
        per_request(sum_ms(spans.named("dag"))),
        "ms",
    );
    let setups = spans.named("setup").count().max(1) as f64;
    push(
        "arch.device_ms",
        sum_ms(spans.named("device")) / setups,
        "ms",
    );

    let encodes: Vec<&SpanData> = spans.named("encode").collect();
    let extends: Vec<&SpanData> = spans.named("extend").collect();
    push(
        "encode.build_ms",
        per_request(sum_ms(encodes.iter().copied())),
        "ms",
    );
    push(
        "encode.builds_per_request",
        per_request(encodes.len() as f64),
        "count",
    );
    push(
        "encode.extend_ms",
        per_request(sum_ms(extends.iter().copied())),
        "ms",
    );
    let extensions = extends
        .iter()
        .filter(|s| field_str(s, "result") != Some("rebuild"))
        .count();
    push("encode.extensions", per_request(extensions as f64), "count");
    let encode_field = |key: &str| -> f64 {
        per_request(encodes.iter().map(|s| field_u64(s, key)).sum::<u64>() as f64)
    };
    push("encode.vars", encode_field("vars"), "count");
    push("encode.clauses", encode_field("clauses"), "count");
    for family in FAMILIES {
        push(
            &format!("encode.clauses.{family}"),
            encode_field(&format!("clauses.{family}")),
            "count",
        );
    }

    let probes: Vec<&SpanData> = spans.named("iteration").collect();
    let verdict = |v: &'static str| {
        probes
            .iter()
            .filter(move |s| field_str(s, "result") == Some(v))
    };
    push("core.probes", per_request(probes.len() as f64), "count");
    for v in ["sat", "unsat", "unknown"] {
        push(
            &format!("core.probes.{v}"),
            per_request(verdict(v).count() as f64),
            "count",
        );
    }
    for v in ["sat", "unsat", "unknown"] {
        push(
            &format!("core.probe_ms.{v}"),
            per_request(sum_ms(verdict(v).copied())),
            "ms",
        );
    }
    // Core self time: the synthesizer's top spans minus the outermost
    // encoding and search spans inside them.
    let core_top = sum_ms(
        snapshot
            .spans
            .iter()
            .filter(|s| matches!(spans.parent_name(s), Some("synthesize" | "job"))),
    );
    let layer_time = sum_ms(
        snapshot
            .spans
            .iter()
            .filter(|s| LAYER_SPANS.contains(&s.name.as_str()) && !spans.inside(s, &LAYER_SPANS)),
    );
    push("core.self_ms", per_request(core_top - layer_time), "ms");
    let probe_ms = sum_ms(probes.iter().copied());
    push(
        "core.unknown_probe_share",
        ratio(sum_ms(verdict("unknown").copied()), probe_ms),
        "share",
    );

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    for name in ["conflicts", "decisions", "propagations", "restarts"] {
        push(
            &format!("sat.{name}"),
            per_request(counter(&format!("sat.{name}"))),
            "count",
        );
    }
    let probe_s = probe_ms / 1000.0;
    push(
        "sat.props_per_s",
        ratio(counter("sat.propagations"), probe_s),
        "1/s",
    );
    push(
        "sat.conflicts_per_s",
        ratio(counter("sat.conflicts"), probe_s),
        "1/s",
    );

    push(
        "layout.verify_ms",
        per_request(sum_ms(spans.named("verify"))),
        "ms",
    );
    push(
        "layout.emit_ms",
        per_request(sum_ms(spans.named("emit"))),
        "ms",
    );

    let sabres = spans.named("sabre").count().max(1) as f64;
    push(
        "heuristic.sabre_ms",
        sum_ms(spans.named("sabre")) / sabres,
        "ms",
    );
    let (sabre_sum, olsq2_sum) = run
        .sabre_objectives
        .iter()
        .fold((0usize, 0usize), |(a, b), &(s, o)| (a + s, b + o));
    push(
        "heuristic.sabre_objective_ratio",
        ratio(sabre_sum as f64, olsq2_sum as f64),
        "ratio",
    );

    let jobs: Vec<_> = run
        .pass
        .records
        .iter()
        .filter_map(|r| r.job.map(|j| (r, j)))
        .collect();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1000.0;
    let waits: Vec<f64> = jobs.iter().map(|(_, j)| ms(j.wait)).collect();
    let services: Vec<f64> = jobs.iter().map(|(_, j)| ms(j.service)).collect();
    let handoffs: Vec<f64> = jobs
        .iter()
        .map(|(r, j)| ms(r.latency) - ms(j.wait) - ms(j.service))
        .collect();
    let pct = |values: &[f64], p: f64| percentile(values, p).unwrap_or(0.0);
    push("service.wait_ms.p50", pct(&waits, 50.0), "ms");
    push("service.wait_ms.p90", pct(&waits, 90.0), "ms");
    push("service.service_ms.p50", pct(&services, 50.0), "ms");
    push("service.service_ms.p90", pct(&services, 90.0), "ms");
    push("service.handoff_ms.p50", pct(&handoffs, 50.0), "ms");
    let cache = run.pass.cache.unwrap_or_default();
    push("service.cache_hits", cache.hits as f64, "count");
    push("service.cache_misses", cache.misses as f64, "count");
    push("service.cache_evictions", cache.evictions as f64, "count");
    push(
        "service.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "ratio",
    );
    let busy_ms: f64 = services.iter().sum();
    push(
        "service.worker_busy_share",
        ratio(busy_ms, run.workers as f64 * ms(run.pass.wall)),
        "share",
    );
    let rejected = run
        .pass
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Rejected)
        .count();
    push("service.rejected", rejected as f64, "count");

    push(
        "obs.trace_overhead_ratio",
        ratio(run.pass.wall.as_secs_f64(), run.untraced_wall_s),
        "ratio",
    );
    let request_ms = sum_ms(spans.named("request"));
    let covered = sum_ms(
        snapshot
            .spans
            .iter()
            .filter(|s| spans.parent_name(s) == Some("request")),
    );
    push("obs.span_coverage", ratio(covered, request_ms), "ratio");

    let mut tally = Tally::default();
    for r in &run.pass.records {
        tally.record(r.outcome);
    }
    push("fail_share", tally.fail_share(), "share");
    out
}
