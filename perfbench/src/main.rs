//! End-to-end benchmark of the OLSQ2 pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <swap-descent|device-depth|service-mix> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every request is QASM text sent through `parse_qasm` → dependency DAG →
//! synthesis → `verify` → emitted physical QASM, and every reply passes the
//! correctness gate. With `--trace 0` the run repeats whole passes for about
//! `--seconds` seconds with tracing off and reports the end-to-end metrics;
//! with `--trace 1` it runs a traced pass between two untraced ones, reports the
//! per-layer metrics read from the recorder snapshot and writes the JSONL
//! trace under `perfbench/out/`. The last line of standard output is one
//! JSON object; the process exits 1 if any output was wrong.
//! See `NOTES.md` for the workloads and the metric definitions.

mod host;
mod layers;
mod pipeline;
mod spec;
mod stats;

use olsq2::Recorder;
use olsq2_circuit::parse_qasm;
use olsq2_heuristic::{sabre_route, SabreConfig};
use olsq2_prng::Rng;
use pipeline::{run_pass, setup, Pass, Record};
use spec::Workload;
use stats::{geomean, highest_supported_percentile, median, percentile, Outcome, Tally};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Set-ups timed before the passes, besides the one each pass makes.
const SETUP_REPEATS: usize = 100;

const USAGE: &str = "usage: perfbench --workload <swap-descent|device-depth|service-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    host::pin_malloc_thresholds();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let correct = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    if !correct {
        std::process::exit(1);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// One metric of the result line, named as in `BENCHMARK.json`.
pub struct Metric {
    /// Name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Counts outcomes and prints every wrong reply to standard error.
fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Tally {
    let mut tally = Tally::default();
    for pass in passes {
        for (spec, record) in pass.specs.iter().zip(&pass.records) {
            tally.record(record.outcome);
            if let Some(problem) = &record.problem {
                eprintln!("WRONG {}: {problem}", spec.name());
            }
        }
    }
    tally
}

/// Untraced passes for about `--seconds`; prints the end-to-end metrics.
fn timed(args: &Args) -> bool {
    let workload = args.workload;
    let off = Recorder::disabled();
    // Every pass draws its own order from the run's seed, so a run's
    // medians span many orders of the same requests.
    let mut pass_seeds = Rng::seed_from_u64(args.seed);
    let mut specs = workload.specs(args.seed);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let prepared = setup(workload, &specs, &off);
        setup_s.push(start.elapsed().as_secs_f64());
        drop(prepared);
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = Vec::new();
    loop {
        let set_up = Instant::now();
        let prepared = setup(workload, &specs, &off);
        setup_s.push(set_up.elapsed().as_secs_f64());
        host::reset_peak_rss();
        passes.push(run_pass(&specs, &prepared, &off));
        peak_rss_mb.push(host::peak_rss_mb());
        drop(prepared);
        specs = workload.specs(pass_seeds.next_u64());
        let elapsed = start.elapsed();
        if elapsed + elapsed / passes.len() as u32 > budget {
            break;
        }
    }

    let tally = tally(&passes);
    let records: Vec<&Record> = passes.iter().flat_map(|p| &p.records).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let request_ms: Vec<f64> = records.iter().map(|r| ms(r.wall)).collect();
    let latency_ms: Vec<f64> = records.iter().map(|r| ms(r.latency)).collect();
    let completed = tally.optimal + tally.degraded;
    // Budgeted requests are left out, so a change in their outcome class
    // does not read as a change in layout quality.
    let objective_sums: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.specs
                .iter()
                .zip(&p.records)
                .filter(|(s, _)| s.budget.is_none())
                .filter_map(|(_, r)| r.objective)
                .sum::<usize>() as f64
        })
        .collect();
    let metric = |name: &str, value: Option<f64>, unit| Metric {
        name: name.to_string(),
        value: value.unwrap_or(0.0),
        unit,
    };
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("request_geomean_ms", geomean(&request_ms), "ms"),
        metric("latency_p50_ms", percentile(&latency_ms, 50.0), "ms"),
        metric("latency_p90_ms", percentile(&latency_ms, 90.0), "ms"),
        metric(
            "throughput_jps",
            Some(completed as f64 / walls.iter().sum::<f64>()),
            "1/s",
        ),
        metric("optimal_share", Some(tally.optimal_share()), "share"),
        metric("objective_sum", median(&objective_sums), "count"),
        metric("peak_rss_mb", median(&peak_rss_mb), "MiB"),
    ];

    println!(
        "perfbench {} seed={} seconds={} clients={} loop=closed passes={} requests/pass={}",
        workload.name(),
        args.seed,
        args.seconds,
        workload.clients(),
        passes.len(),
        passes[0].specs.len()
    );
    print_requests(&passes[0]);
    println!("{:<22} {:>16}  unit", "metric", "value");
    for m in &metrics {
        println!("{:<22} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<22} {:>16.6}  share (requests without a verified layout; traced run reports it)",
        "fail_share",
        tally.fail_share()
    );
    let support = highest_supported_percentile(latency_ms.len())
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "latency samples: {}; highest percentile with >= 10 samples beyond it: {support}",
        latency_ms.len()
    );
    finish(&tally, &metrics)
}

/// Per-request rows of one pass; `service-mix` gets a summary instead.
fn print_requests(pass: &Pass) {
    let specs = &pass.specs;
    if pass.cache.is_some() {
        let hits = pass
            .records
            .iter()
            .filter(|r| r.job.is_some_and(|j| j.cache_hit))
            .count();
        println!(
            "{} jobs per pass, {} served from the cache, {} twins",
            pass.records.len(),
            hits,
            specs.iter().filter(|s| s.twin_of.is_some()).count()
        );
        return;
    }
    println!(
        "{:<40} {:>10} {:>10} {:>12}",
        "request", "outcome", "objective", "wall_ms"
    );
    for (spec, r) in specs.iter().zip(&pass.records) {
        let objective = r.objective.map_or("-".to_string(), |o| o.to_string());
        println!(
            "{:<40} {:>10} {:>10} {:>12.3}",
            spec.name(),
            outcome_name(r.outcome),
            objective,
            ms(r.wall)
        );
    }
}

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Optimal => "optimal",
        Outcome::Degraded => "degraded",
        Outcome::NoLayout => "no-layout",
        Outcome::Rejected => "rejected",
        Outcome::Wrong => "WRONG",
    }
}

/// Prints the host facts and the result line; returns whether every
/// output was correct.
fn finish(tally: &Tally, metrics: &[Metric]) -> bool {
    let correct = tally.failed() == 0;
    println!("{{\"host\":{}}}", host::facts_json());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(",")
    );
    correct
}

/// A traced pass between two untraced ones; prints the per-layer metrics.
fn traced(args: &Args) -> bool {
    let workload = args.workload;
    let specs = workload.specs(args.seed);
    let off = Recorder::disabled();
    let untraced_pass = || {
        let prepared = setup(workload, &specs, &off);
        run_pass(&specs, &prepared, &off)
    };
    let before = untraced_pass();

    let recorder = Recorder::new();
    let mut prepared = setup(workload, &specs, &recorder);
    let traced = run_pass(&specs, &prepared, &recorder);
    let workers = prepared.service.as_ref().map_or(0, |s| s.num_workers());
    if let Some(mut service) = prepared.service.take() {
        service.shutdown();
    }

    // SABRE on every request, outside the request spans, as the reference
    // a heuristic incumbent would start from.
    let mut sabre_objectives = Vec::new();
    for ((spec, (qasm, device)), record) in specs.iter().zip(&prepared.inputs).zip(&traced.records)
    {
        let circuit = parse_qasm(qasm).expect("set-up QASM parses");
        let config = SabreConfig {
            swap_duration: spec.swap_duration,
            ..SabreConfig::default()
        };
        let routed = {
            let _sabre = recorder.span("sabre");
            sabre_route(&circuit, &prepared.devices[*device], &config)
        };
        if let (Ok(routed), Some(objective)) = (routed, record.objective) {
            sabre_objectives.push((
                spec.objective_of(routed.depth, routed.swap_count()),
                objective,
            ));
        }
    }

    drop(prepared);
    let after = untraced_pass();

    let snapshot = recorder.snapshot();
    let dir = host::repo_root().join("perfbench").join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        snapshot.write_jsonl(&mut file)?;
        file.flush()
    });
    if let Err(e) = written {
        eprintln!("cannot write trace {}: {e}", path.display());
        std::process::exit(1);
    }

    let run = layers::TracedRun {
        pass: &traced,
        untraced_wall_s: (before.wall + after.wall).as_secs_f64() / 2.0,
        sabre_objectives: &sabre_objectives,
        workers,
    };
    let per_layer = layers::per_layer(&snapshot, &run);
    println!(
        "perfbench {} seed={} traced: {} requests, {} spans; trace written to {} (render with `olsq2 trace-report`)",
        workload.name(),
        args.seed,
        traced.records.len(),
        snapshot.spans.len(),
        path.display()
    );
    println!("{:<34} {:>16}  unit", "per-layer metric", "value");
    for m in &per_layer {
        println!("{:<34} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    let tally = tally([&before, &traced, &after]);
    finish(&tally, &per_layer)
}
