//! A/B harness for the speculative bound-race scheduler: the
//! `BoundScheduler` (racing depth/SWAP bounds on forked solvers with
//! shared learnts) versus the sequential `Olsq2Synthesizer`, end to
//! end, written to `BENCH_bounds.json` at the repo root.
//!
//! Two sections:
//!
//! * **depth** — `optimize_depth` on the quick corpus (plus larger
//!   instances under `--full`): the race must land on the exact depth
//!   the sequential walk proves.
//! * **swaps** — `optimize_swaps` end to end (depth phase + bracketed
//!   SWAP descent): optima must agree and the raced layout must verify.
//!
//! Methodology: with `auto_tune` (the default) the scheduler clamps its
//! cohort to the measured core count (`available_parallelism` in the
//! JSON). Both sides hand the SWAP phase the depth phase's warm,
//! fully-encoded model, so that reuse cancels out of the ratio; what
//! remains is the race itself — speculative bounds on spare cores,
//! bracketed SWAP descent and witness jumps past the probed bound. On
//! one core the race degrades to a single warm worker and the ratio
//! should sit near 1×.
//!
//! The headline (and the `--gate` floor) is the **end-to-end geomean**
//! over the `swaps` rows — `optimize_swaps` is the paper's complete
//! §III-B pipeline (depth phase, SWAP descent, Pareto relaxation).
//! `depth` rows are reported alongside to show the scheduler is
//! overhead-free where phase 1 already decides the race. Strategies are
//! interleaved per trial (sequential, then race, each trial), and each
//! row reports the **median of paired per-trial ratios**, which cancels
//! drift that would bias a mean of separately-averaged times. Geomeans
//! cover rows where the sequential run needed >= 1ms; sub-millisecond
//! rows measure process noise, not solving.
//!
//! `--gate <floor>` asserts the end-to-end geomean after the JSON is
//! written, so CI uploads the artifact even on a regression.

use olsq2::bounds::{BoundProbeStats, BoundRaceConfig, BoundScheduler};
use olsq2::{Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_bench::BenchOpts;
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit, tof_circuit};
use olsq2_circuit::Circuit;
use olsq2_layout::verify;
use std::fmt::Write as _;
use std::time::Instant;

const WORKERS: usize = 4;

struct Row {
    case: String,
    device: String,
    objective: &'static str,
    seq_us: Vec<u128>,
    race_us: Vec<u128>,
    optimum: usize,
    agree: bool,
    probes: BoundProbeStats,
    shared_learnts: u64,
    cross_bound: u64,
}

/// Median of the per-trial paired ratios `base[i] / this[i]`.
fn median_paired_ratio(base: &[u128], this: &[u128]) -> f64 {
    let mut ratios: Vec<f64> = base
        .iter()
        .zip(this)
        .map(|(&b, &t)| b as f64 / (t.max(1)) as f64)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let n = ratios.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let logs: Vec<f64> = values
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

fn depth_case(
    case: &str,
    circuit: &Circuit,
    graph: &CouplingGraph,
    swap_duration: usize,
    trials: usize,
    opts: &BenchOpts,
    rows: &mut Vec<Row>,
) {
    let mut config = SynthesisConfig::with_swap_duration(swap_duration);
    config.time_budget = Some(opts.budget);
    let race = BoundRaceConfig {
        workers: WORKERS,
        ..BoundRaceConfig::default()
    };

    let mut seq_us = Vec::new();
    let mut race_us = Vec::new();
    let mut optima = Vec::new();
    let mut probes = BoundProbeStats::default();
    let mut shared_learnts = 0;
    let mut cross_bound = 0;
    for _ in 0..trials {
        let start = Instant::now();
        let seq = Olsq2Synthesizer::new(config.clone())
            .optimize_depth(circuit, graph)
            .expect("sequential run");
        seq_us.push(start.elapsed().as_micros());

        let start = Instant::now();
        let out = BoundScheduler::new(config.clone(), race.clone())
            .optimize_depth(circuit, graph)
            .expect("bound race");
        race_us.push(start.elapsed().as_micros());

        assert!(seq.proven_optimal && out.outcome.proven_optimal);
        assert_eq!(
            verify(circuit, graph, &out.outcome.result),
            Ok(()),
            "{case}: raced layout failed verification"
        );
        optima.push((seq.result.depth, out.outcome.result.depth));
        probes = out.probes;
        shared_learnts = out.sharing.as_ref().map_or(0, |s| s.imported);
        cross_bound = out.sharing.as_ref().map_or(0, |s| s.cross_bound);
    }
    let (d_seq, d_race) = optima[0];
    rows.push(Row {
        case: case.to_string(),
        device: graph.name().to_string(),
        objective: "depth",
        seq_us,
        race_us,
        optimum: d_seq,
        agree: optima.iter().all(|&(a, b)| a == b) && d_seq == d_race,
        probes,
        shared_learnts,
        cross_bound,
    });
}

fn swap_case(
    case: &str,
    circuit: &Circuit,
    graph: &CouplingGraph,
    swap_duration: usize,
    trials: usize,
    opts: &BenchOpts,
    rows: &mut Vec<Row>,
) {
    let mut config = SynthesisConfig::with_swap_duration(swap_duration);
    config.time_budget = Some(opts.budget);
    let race = BoundRaceConfig {
        workers: WORKERS,
        ..BoundRaceConfig::default()
    };

    let mut seq_us = Vec::new();
    let mut race_us = Vec::new();
    let mut optima = Vec::new();
    let mut probes = BoundProbeStats::default();
    let mut shared_learnts = 0;
    let mut cross_bound = 0;
    for _ in 0..trials {
        let start = Instant::now();
        let seq = Olsq2Synthesizer::new(config.clone())
            .optimize_swaps(circuit, graph)
            .expect("sequential run");
        seq_us.push(start.elapsed().as_micros());

        let start = Instant::now();
        let out = BoundScheduler::new(config.clone(), race.clone())
            .optimize_swaps(circuit, graph)
            .expect("bound race");
        race_us.push(start.elapsed().as_micros());

        assert!(seq.best.proven_optimal && out.outcome.best.proven_optimal);
        assert_eq!(
            verify(circuit, graph, &out.outcome.best.result),
            Ok(()),
            "{case}: raced layout failed verification"
        );
        optima.push((
            seq.best.result.swap_count(),
            out.outcome.best.result.swap_count(),
        ));
        probes = out.probes;
        shared_learnts = out.sharing.as_ref().map_or(0, |s| s.imported);
        cross_bound = out.sharing.as_ref().map_or(0, |s| s.cross_bound);
    }
    let (s_seq, s_race) = optima[0];
    rows.push(Row {
        case: case.to_string(),
        device: graph.name().to_string(),
        objective: "swaps",
        seq_us,
        race_us,
        optimum: s_seq,
        agree: optima.iter().all(|&(a, b)| a == b) && s_seq == s_race,
        probes,
        shared_learnts,
        cross_bound,
    });
}

fn main() {
    let opts = BenchOpts::from_args();
    let trials = if opts.full { 5 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();

    // Depth rows — the quick corpus, plus routing-heavy extras in full
    // mode. QUEKO carries a known-optimal depth by construction.
    let queko = queko_circuit(6, grid(2, 3).edges(), 5, 16, opts.seed);
    let depth_cases: Vec<(String, Circuit, CouplingGraph, usize)> = if opts.full {
        vec![
            ("qaoa-4".into(), qaoa_circuit(4, opts.seed), line(4), 1),
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), grid(2, 3), 1),
            ("qaoa-8".into(), qaoa_circuit(8, opts.seed), grid(3, 3), 1),
            ("qft-4".into(), qft_decomposed(4), line(4), 3),
            ("qft-5".into(), qft_decomposed(5), line(5), 3),
            ("tof-4".into(), tof_circuit(4), line(7), 3),
            ("queko-5x16".into(), queko.circuit.clone(), grid(2, 3), 3),
        ]
    } else {
        vec![
            ("qaoa-4".into(), qaoa_circuit(4, opts.seed), line(4), 1),
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), grid(2, 3), 1),
            ("qft-4".into(), qft_decomposed(4), line(4), 3),
            ("queko-5x16".into(), queko.circuit.clone(), grid(2, 3), 3),
        ]
    };
    for (case, circuit, graph, sd) in &depth_cases {
        depth_case(case, circuit, graph, *sd, trials, &opts, &mut rows);
    }

    // SWAP rows — the full pipeline (depth phase, then the bracketed
    // descent), where warm-worker reuse has the most room to pay off.
    // qaoa-8 (grid 3x3) proves its SWAP optimum in minutes, not seconds
    // — full mode only, and only under a generous `--budget`.
    let swap_cases: Vec<(String, Circuit, CouplingGraph, usize)> = if opts.full {
        vec![
            ("qaoa-4".into(), qaoa_circuit(4, opts.seed), line(4), 1),
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), grid(2, 3), 1),
            ("qaoa-8".into(), qaoa_circuit(8, opts.seed), grid(3, 3), 1),
            ("qft-4".into(), qft_decomposed(4), line(4), 3),
            ("qft-5".into(), qft_decomposed(5), line(5), 3),
            ("tof-3".into(), tof_circuit(3), line(5), 3),
        ]
    } else {
        vec![
            ("qaoa-4".into(), qaoa_circuit(4, opts.seed), line(4), 1),
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), grid(2, 3), 1),
            ("qft-4".into(), qft_decomposed(4), line(4), 3),
            ("tof-3".into(), tof_circuit(3), line(5), 3),
        ]
    };
    for (case, circuit, graph, sd) in &swap_cases {
        swap_case(case, circuit, graph, *sd, trials, &opts, &mut rows);
    }

    println!("Bound race vs sequential walk ({WORKERS} workers, {trials} paired trials)\n");
    println!(
        "{:<12} {:<9} {:<6} {:>12} {:>12} {:>9} {:>5} {:>6} {:>6} {:>6}",
        "case", "device", "obj", "seq", "race", "speedup", "opt", "sat", "unsat", "jumps"
    );
    for r in &rows {
        println!(
            "{:<12} {:<9} {:<6} {:>10}us {:>10}us {:>8.2}x {:>5} {:>6} {:>6} {:>6}{}",
            r.case,
            r.device,
            r.objective,
            r.seq_us.iter().min().expect("trials"),
            r.race_us.iter().min().expect("trials"),
            median_paired_ratio(&r.seq_us, &r.race_us),
            r.optimum,
            r.probes.sat,
            r.probes.unsat,
            r.probes.bracket_jumps,
            if r.agree { "" } else { "  OPTIMUM MISMATCH" },
        );
    }

    let timed = |r: &&Row| *r.seq_us.iter().min().expect("trials") >= 1000;
    let excluded = rows.iter().filter(|r| !timed(r)).count();
    let end_to_end = geomean(
        rows.iter()
            .filter(|r| r.objective == "swaps")
            .filter(timed)
            .map(|r| median_paired_ratio(&r.seq_us, &r.race_us)),
    )
    .unwrap_or(f64::NAN);
    let depth_geomean = geomean(
        rows.iter()
            .filter(|r| r.objective == "depth")
            .filter(timed)
            .map(|r| median_paired_ratio(&r.seq_us, &r.race_us)),
    )
    .unwrap_or(f64::NAN);
    let mismatches = rows.iter().filter(|r| !r.agree).count();
    println!(
        "\ngeomean end-to-end speedup vs sequential (swaps rows with seq >= 1ms): {end_to_end:.2}x\n\
         geomean depth-phase speedup (depth rows with seq >= 1ms): {depth_geomean:.2}x\n\
         ({excluded} sub-ms row(s) excluded), optimum mismatches: {mismatches}"
    );

    let us_list = |xs: &[u128]| {
        let items: Vec<String> = xs.iter().map(u128::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"harness\": \"bounds\",");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"full\": {},", opts.full);
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"mismatches\": {mismatches},");
    let _ = writeln!(json, "  \"end_to_end_geomean_speedup\": {end_to_end:.4},");
    let _ = writeln!(json, "  \"depth_geomean_speedup\": {depth_geomean:.4},");
    let _ = writeln!(json, "  \"geomean_excludes_sub_ms_rows\": {excluded},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"device\": \"{}\", \"objective\": \"{}\", \
             \"seq_us\": {}, \"race_us\": {}, \"median_paired_speedup\": {:.4}, \
             \"optimum\": {}, \"agree\": {}, \"probes\": {{\"sat\": {}, \"unsat\": {}, \
             \"cancelled\": {}, \"unknown\": {}, \"speculative\": {}, \
             \"bracket_jumps\": {}}}, \"shared_learnts_imported\": {},              \"cross_bound_imports\": {}}}{}",
            r.case,
            r.device,
            r.objective,
            us_list(&r.seq_us),
            us_list(&r.race_us),
            median_paired_ratio(&r.seq_us, &r.race_us),
            r.optimum,
            r.agree,
            r.probes.sat,
            r.probes.unsat,
            r.probes.cancelled,
            r.probes.unknown,
            r.probes.speculative,
            r.probes.bracket_jumps,
            r.shared_learnts,
            r.cross_bound,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bounds.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\nfailed to write {out}: {e}"),
    }
    assert_eq!(
        mismatches, 0,
        "the race disagreed with the sequential walk on an optimum; see table above"
    );
    if let Some(floor) = opts.gate {
        assert!(
            end_to_end >= floor,
            "end-to-end geomean {end_to_end:.4}x fell below the gate floor {floor}x"
        );
    }
}
