//! A/B harness for the cube-and-conquer subsystem: the cube engine
//! versus a single solver versus the portfolio, written to
//! `BENCH_cube.json` at the repo root.
//!
//! Two sections:
//!
//! * **unsat** — raw UNSAT instances (pigeonhole, XOR-chain parity):
//!   `solve_cubes` over a worker pool versus one `Solver::solve` call.
//!   Each row also re-runs the cube engine in prove mode (untimed) and
//!   checks the stitched refutation.
//! * **synthesis** — `optimize_depth` end to end on routing-heavy
//!   instances: `CubeSynthesizer` versus the sequential
//!   `Olsq2Synthesizer` versus the diversified portfolio. Optima must
//!   agree across all three on every row.
//!
//! Methodology: this container is single-core, so any speedup here is
//! **total-work reduction** — lemmas retained across cubes and bounds,
//! plus assumption cores pruning sibling cubes — not parallelism.
//! Strategies are interleaved per trial (A, B, C, then again), and each
//! row reports the **median of paired per-trial ratios**, which cancels
//! drift that would bias a mean of separately-averaged times.

use olsq2::{CubeParams, CubeSynthesizer, Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_bench::BenchOpts;
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, tof_circuit};
use olsq2_circuit::Circuit;
use olsq2_cube::{solve_cubes, CubeConfig, SatCubeSolver, SplitGroup};
use olsq2_sat::{Lit, SolveResult, Solver, Var};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 4;

fn lit(v: usize) -> Lit {
    Lit::positive(Var::from_index(v))
}

/// Pigeonhole principle with `holes + 1` pigeons: UNSAT, exponentially
/// hard for resolution, and carrying natural one-hot split groups (each
/// pigeon's hole assignment).
fn pigeonhole(holes: usize) -> (usize, Vec<Vec<Lit>>, Vec<SplitGroup>) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| lit(p * holes + h);
    let mut clauses = Vec::new();
    let mut groups = Vec::new();
    for p in 0..pigeons {
        let group: Vec<Lit> = (0..holes).map(|h| var(p, h)).collect();
        clauses.push(group.clone());
        groups.push(SplitGroup {
            family: olsq2_encode::ConstraintFamily::Mapping,
            lits: group,
        });
    }
    for h in 0..holes {
        for a in 0..pigeons {
            for b in a + 1..pigeons {
                clauses.push(vec![!var(a, h), !var(b, h)]);
            }
        }
    }
    (pigeons * holes, clauses, groups)
}

/// An odd XOR chain: x0 ⊕ x1, x1 ⊕ x2, …, x_{n-1} ⊕ x0 with an odd
/// number of inversions — UNSAT, no short resolution refutation through
/// any single variable, so splitting genuinely decomposes the search.
fn xor_chain(n: usize) -> (usize, Vec<Vec<Lit>>, Vec<SplitGroup>) {
    let mut clauses = Vec::new();
    for i in 0..n {
        let a = lit(i);
        let b = lit((i + 1) % n);
        if i == 0 {
            // a == b
            clauses.push(vec![!a, b]);
            clauses.push(vec![a, !b]);
        } else {
            // a != b
            clauses.push(vec![a, b]);
            clauses.push(vec![!a, !b]);
        }
    }
    (n, clauses, Vec::new())
}

struct UnsatRow {
    case: String,
    single_us: Vec<u128>,
    cube_us: Vec<u128>,
    cubes_split: u64,
    pruned: u64,
    proof_checked: bool,
}

struct SynthRow {
    case: String,
    device: String,
    seq_us: Vec<u128>,
    cube_us: Vec<u128>,
    portfolio_us: Vec<u128>,
    depth: usize,
    agree: bool,
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

fn unsat_case(
    case: &str,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    groups: &[SplitGroup],
    trials: usize,
    rows: &mut Vec<UnsatRow>,
) {
    let cube_cfg = CubeConfig {
        workers: WORKERS,
        depth: 3,
        conflict_budget: 5_000,
        ..CubeConfig::default()
    };
    // Each worker couples to the cohort's shared clause pool, so a lemma
    // learned refuting one cube prunes the search in every other —
    // prove mode runs bare (imported clauses are unverifiable in a
    // stitched log), mirroring `CubeSynthesizer`.
    let make_worker = |i: usize, pool: Option<&Arc<olsq2::SharedClausePool>>, prove: bool| {
        use olsq2_cube::CubeSolvable as _;
        let mut w = SatCubeSolver::new(num_vars, clauses, prove);
        if let Some(pool) = pool {
            let ep = olsq2::CohortEndpoint::new(pool.clone(), i, olsq2_obs::Recorder::disabled());
            w.solver_mut().set_exchange(Some(Arc::new(ep)));
        }
        for g in groups {
            w.add_hint(g.clone());
        }
        w
    };

    let mut single_us = Vec::new();
    let mut cube_us = Vec::new();
    let mut cubes_split = 0;
    let mut pruned = 0;
    for _ in 0..trials {
        // Interleaved: single first, then cube, each trial.
        let start = Instant::now();
        let mut solver = Solver::new();
        while solver.num_vars() < num_vars {
            solver.new_var();
        }
        for c in clauses {
            solver.add_clause(c.clone());
        }
        let single = solver.solve(&[]);
        single_us.push(start.elapsed().as_micros());
        assert_eq!(single, SolveResult::Unsat, "{case}: single not UNSAT");

        let start = Instant::now();
        let pool = Arc::new(olsq2::SharedClausePool::new(WORKERS, 4096));
        let run = solve_cubes(
            |i| make_worker(i, Some(&pool), false),
            &cube_cfg,
            &olsq2_obs::Recorder::disabled(),
        );
        cube_us.push(start.elapsed().as_micros());
        assert_eq!(run.result, SolveResult::Unsat, "{case}: cube not UNSAT");
        cubes_split = run.stats.cubes_split;
        pruned = run.stats.cubes_pruned_by_core;
    }

    // Untimed prove-mode run: the stitched refutation must check.
    let prove_cfg = CubeConfig {
        prove: true,
        ..cube_cfg
    };
    let run = solve_cubes(
        |i| make_worker(i, None, true),
        &prove_cfg,
        &olsq2_obs::Recorder::disabled(),
    );
    assert_eq!(
        run.result,
        SolveResult::Unsat,
        "{case}: prove-mode not UNSAT"
    );
    let proof = run.proof.expect("prove-mode UNSAT carries a proof");
    let checked = proof.check();
    assert!(
        checked.is_ok(),
        "{case}: stitched proof rejected: {checked:?}"
    );

    rows.push(UnsatRow {
        case: case.to_string(),
        single_us,
        cube_us,
        cubes_split,
        pruned,
        proof_checked: true,
    });
}

fn synth_case(
    case: &str,
    circuit: &Circuit,
    graph: &CouplingGraph,
    swap_duration: usize,
    trials: usize,
    opts: &BenchOpts,
    rows: &mut Vec<SynthRow>,
) {
    let mut config = SynthesisConfig::with_swap_duration(swap_duration);
    config.time_budget = Some(opts.budget);
    let params = CubeParams {
        workers: WORKERS,
        ..CubeParams::default()
    };

    let mut seq_us = Vec::new();
    let mut cube_us = Vec::new();
    let mut portfolio_us = Vec::new();
    let mut depths = Vec::new();
    for _ in 0..trials {
        let start = Instant::now();
        let seq = Olsq2Synthesizer::new(config.clone())
            .optimize_depth(circuit, graph)
            .expect("sequential run");
        seq_us.push(start.elapsed().as_micros());

        let start = Instant::now();
        let cube = CubeSynthesizer::new(config.clone(), params.clone())
            .optimize_depth(circuit, graph)
            .expect("cube run");
        cube_us.push(start.elapsed().as_micros());

        let start = Instant::now();
        let pcfg = olsq2::PortfolioConfig::standard();
        let (port, _winner) = olsq2::PortfolioSynthesizer::with_config(config.clone(), &pcfg)
            .optimize_depth(circuit, graph)
            .expect("portfolio run");
        portfolio_us.push(start.elapsed().as_micros());

        assert!(seq.proven_optimal && cube.outcome.proven_optimal && port.proven_optimal);
        depths.push((
            seq.result.depth,
            cube.outcome.result.depth,
            port.result.depth,
        ));
        assert_eq!(
            olsq2_layout::verify(circuit, graph, &cube.outcome.result),
            Ok(()),
            "{case}: cube layout failed verification"
        );
    }
    let (d_seq, d_cube, d_port) = depths[0];
    let agree = depths.iter().all(|&(a, b, c)| a == b && b == c);
    rows.push(SynthRow {
        case: case.to_string(),
        device: graph.name().to_string(),
        seq_us,
        cube_us,
        portfolio_us,
        depth: d_seq,
        agree: agree && d_seq == d_cube && d_cube == d_port,
    });
}

fn main() {
    let opts = BenchOpts::from_args();
    let trials = if opts.full { 5 } else { 3 };

    let mut unsat: Vec<UnsatRow> = Vec::new();
    let mut synth: Vec<SynthRow> = Vec::new();

    // UNSAT rows: the cube engine against one solver on the same CNF.
    let php_sizes: &[usize] = if opts.full { &[7, 8, 9] } else { &[6, 7] };
    for &h in php_sizes {
        let (vars, clauses, groups) = pigeonhole(h);
        unsat_case(
            &format!("php-{h}"),
            vars,
            &clauses,
            &groups,
            trials,
            &mut unsat,
        );
    }
    let xor_sizes: &[usize] = if opts.full { &[24, 32] } else { &[16, 24] };
    for &n in xor_sizes {
        let (vars, clauses, groups) = xor_chain(n);
        unsat_case(
            &format!("xor-{n}"),
            vars,
            &clauses,
            &groups,
            trials,
            &mut unsat,
        );
    }

    // Synthesis rows: depth optimization end to end, optima enforced
    // equal across all three strategies.
    let synth_cases: Vec<(String, Circuit, CouplingGraph, usize)> = if opts.full {
        vec![
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), line(6), 1),
            ("qaoa-8".into(), qaoa_circuit(8, opts.seed), grid(3, 3), 1),
            ("qft-5".into(), qft_decomposed(5), line(5), 3),
            ("tof-4".into(), tof_circuit(4), line(7), 3),
        ]
    } else {
        vec![
            ("qaoa-4".into(), qaoa_circuit(4, opts.seed), line(4), 1),
            ("qaoa-6".into(), qaoa_circuit(6, opts.seed), grid(2, 3), 1),
            ("qft-4".into(), qft_decomposed(4), line(4), 3),
        ]
    };
    for (case, circuit, graph, sd) in &synth_cases {
        synth_case(case, circuit, graph, *sd, trials, &opts, &mut synth);
    }

    println!("UNSAT instances: cube engine vs single solver ({WORKERS} workers, {trials} paired trials)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>7} {:>7} {:>7}",
        "case", "single", "cube", "speedup", "cubes", "pruned", "proof"
    );
    for r in &unsat {
        println!(
            "{:<10} {:>10}us {:>10}us {:>8.2}x {:>7} {:>7} {:>7}",
            r.case,
            r.single_us.iter().min().expect("trials"),
            r.cube_us.iter().min().expect("trials"),
            median_paired_ratio(&r.single_us, &r.cube_us),
            r.cubes_split,
            r.pruned,
            if r.proof_checked { "ok" } else { "FAIL" },
        );
    }
    // Sub-millisecond rows measure scheduler overhead, not solving:
    // the geomean covers rows where the single solver needed ≥ 1ms.
    let timed = |r: &&UnsatRow| *r.single_us.iter().min().expect("trials") >= 1000;
    let excluded = unsat.iter().filter(|r| !timed(r)).count();
    let unsat_geomean = geomean(
        unsat
            .iter()
            .filter(timed)
            .map(|r| median_paired_ratio(&r.single_us, &r.cube_us)),
    )
    .unwrap_or(f64::NAN);
    println!(
        "\ngeomean speedup vs single solver (rows with single >= 1ms): {unsat_geomean:.2}x \
         ({excluded} sub-ms row(s) excluded)"
    );

    println!("\nDepth synthesis: cube vs sequential vs portfolio\n");
    println!(
        "{:<10} {:<9} {:>12} {:>12} {:>12} {:>9} {:>6}",
        "case", "device", "seq", "cube", "portfolio", "spd/seq", "depth"
    );
    for r in &synth {
        println!(
            "{:<10} {:<9} {:>10}us {:>10}us {:>10}us {:>8.2}x {:>6}{}",
            r.case,
            r.device,
            r.seq_us.iter().min().expect("trials"),
            r.cube_us.iter().min().expect("trials"),
            r.portfolio_us.iter().min().expect("trials"),
            median_paired_ratio(&r.seq_us, &r.cube_us),
            r.depth,
            if r.agree { "" } else { "  OPTIMUM MISMATCH" },
        );
    }

    let mismatches = synth.iter().filter(|r| !r.agree).count();

    let us_list = |xs: &[u128]| {
        let items: Vec<String> = xs.iter().map(u128::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"harness\": \"cube\",");
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
    let _ = writeln!(
        json,
        "  \"unsat_geomean_speedup_vs_single\": {unsat_geomean:.4},"
    );
    let _ = writeln!(json, "  \"geomean_excludes_sub_ms_rows\": {excluded},");
    json.push_str("  \"unsat\": [\n");
    for (i, r) in unsat.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"single_us\": {}, \"cube_us\": {}, \
             \"median_paired_speedup\": {:.4}, \"cubes_split\": {}, \
             \"pruned_by_core\": {}, \"proof_checked\": {}}}{}",
            r.case,
            us_list(&r.single_us),
            us_list(&r.cube_us),
            median_paired_ratio(&r.single_us, &r.cube_us),
            r.cubes_split,
            r.pruned,
            r.proof_checked,
            if i + 1 < unsat.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"synthesis\": [\n");
    for (i, r) in synth.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"device\": \"{}\", \"seq_us\": {}, \"cube_us\": {}, \
             \"portfolio_us\": {}, \"median_paired_speedup_vs_seq\": {:.4}, \
             \"depth\": {}, \"agree\": {}}}{}",
            r.case,
            r.device,
            us_list(&r.seq_us),
            us_list(&r.cube_us),
            us_list(&r.portfolio_us),
            median_paired_ratio(&r.seq_us, &r.cube_us),
            r.depth,
            r.agree,
            if i + 1 < synth.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cube.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\nfailed to write {out}: {e}"),
    }
    assert_eq!(
        mismatches, 0,
        "strategies disagreed on an optimum; see table above"
    );
}
