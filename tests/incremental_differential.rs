//! Differential tests for the zero-rebuild incremental encoding: a model
//! extended in place across window growth must be indistinguishable — at
//! every bound, not just the optimum — from a model freshly built at the
//! same window, for both the flat OLSQ2 formulation and TB-OLSQ2, and the
//! diversified sharing portfolio must report the same optima with the
//! incremental path on as a lone rebuild-only synthesizer. Every layout
//! must pass the five-constraint verifier.

use olsq2::{
    EncodingConfig, FlatModel, Olsq2Synthesizer, OverlapForm, PortfolioConfig,
    PortfolioSynthesizer, SynthesisConfig, TbOlsq2Synthesizer,
};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_circuit::{Circuit, Gate, GateKind};
use olsq2_layout::verify;
use olsq2_prng::Rng;
use olsq2_sat::SolveResult;

fn random_circuit(rng: &mut Rng, nq: usize, max_gates: usize) -> Circuit {
    let len = rng.gen_range(1usize..=max_gates);
    let mut c = Circuit::new(nq);
    for _ in 0..len {
        let a = rng.gen_range(0..nq as u16);
        let b = rng.gen_range(0..nq as u16);
        if a != b {
            c.push(Gate::two(GateKind::Cx, a, b));
        }
    }
    if c.is_empty() {
        c.push(Gate::two(GateKind::Cx, 0, 1));
    }
    c
}

fn devices() -> Vec<CouplingGraph> {
    vec![line(4), grid(2, 2), grid(2, 3)]
}

/// Model-level differential: grow one model 3→5→7→9 in place and after
/// every growth step compare it against a fresh build at the same window —
/// the SAT/UNSAT verdict must agree at *every* depth bound in the window,
/// and both extracted layouts must verify. Three growth steps per round
/// exercise guard chaining (generation N's guard falsified by N+1).
#[test]
fn extended_flat_model_matches_fresh_build_at_every_depth() {
    let mut rng = Rng::seed_from_u64(0x1AC4_0001);
    for round in 0..6 {
        let circuit = random_circuit(&mut rng, 4, 7);
        let device = &devices()[rng.gen_range(0usize..3)];
        let inc_cfg = SynthesisConfig::with_swap_duration(1);
        let mut fresh_cfg = inc_cfg.clone();
        fresh_cfg.incremental = false;

        let mut extended =
            FlatModel::build(&circuit, device, &inc_cfg, 3).expect("incremental build");
        for (step, new_t_ub) in [5usize, 7, 9].into_iter().enumerate() {
            assert!(
                extended.extend_window(&circuit, device, new_t_ub),
                "round {round} step {step}: extension refused"
            );
            let mut fresh =
                FlatModel::build(&circuit, device, &fresh_cfg, new_t_ub).expect("fresh build");
            for k in 1..=new_t_ub {
                let ext_act = extended.depth_bound(k);
                let fresh_act = fresh.depth_bound(k);
                let ext_res = extended.solve(&[ext_act]);
                let fresh_res = fresh.solve(&[fresh_act]);
                assert_eq!(
                    ext_res, fresh_res,
                    "round {round} step {step}: verdict diverged at depth bound {k}"
                );
                if ext_res == SolveResult::Sat {
                    for (label, result) in
                        [("extended", extended.extract()), ("fresh", fresh.extract())]
                    {
                        assert!(
                            result.depth <= k,
                            "round {round} step {step} ({label}): depth {} > bound {k}",
                            result.depth
                        );
                        assert_eq!(
                            verify(&circuit, device, &result),
                            Ok(()),
                            "round {round} step {step} ({label}) at bound {k}"
                        );
                    }
                }
            }
        }
        assert_eq!(extended.extensions(), 3, "round {round}");
    }
}

/// Window-form SWAP differential: the overlap form SWAP descents build
/// (one busy literal per qubit and SWAP finish step) grown 3→5→7→9 in
/// place with S_D = 3, so the busy windows of new finish steps reach
/// below the old window end. After every growth the extended model and a
/// fresh window-form build must agree at every (depth, SWAP) bound pair.
#[test]
fn extended_window_form_matches_fresh_build_at_every_swap_bound() {
    const MAX_SWAPS: usize = 2;
    let mut rng = Rng::seed_from_u64(0x1AC4_0004);
    for round in 0..4 {
        let circuit = random_circuit(&mut rng, 4, 6);
        let device = &devices()[rng.gen_range(0usize..3)];
        let inc_cfg = SynthesisConfig::with_swap_duration(3);
        let mut fresh_cfg = inc_cfg.clone();
        fresh_cfg.incremental = false;
        let build = |cfg: &SynthesisConfig, t_ub: usize| {
            FlatModel::build_with_overlap(&circuit, device, cfg, t_ub, OverlapForm::Window)
                .expect("builds")
        };

        let mut extended = build(&inc_cfg, 3);
        for (step, new_t_ub) in [5usize, 7, 9].into_iter().enumerate() {
            assert!(
                extended.extend_window(&circuit, device, new_t_ub),
                "round {round} step {step}: extension refused"
            );
            let mut fresh = build(&fresh_cfg, new_t_ub);
            for d in 1..=new_t_ub {
                for k in 0..=MAX_SWAPS {
                    let ext_acts = [extended.depth_bound(d), extended.swap_bound(k, MAX_SWAPS)];
                    let fresh_acts = [fresh.depth_bound(d), fresh.swap_bound(k, MAX_SWAPS)];
                    let ext_res = extended.solve(&ext_acts);
                    assert_eq!(
                        ext_res,
                        fresh.solve(&fresh_acts),
                        "round {round} step {step}: verdict diverged at depth {d}, swaps {k}"
                    );
                    if ext_res == SolveResult::Sat {
                        for (label, result) in
                            [("extended", extended.extract()), ("fresh", fresh.extract())]
                        {
                            assert!(
                                result.depth <= d && result.swap_count() <= k,
                                "round {round} step {step} ({label}): bounds ({d}, {k}) broken"
                            );
                            assert_eq!(
                                verify(&circuit, device, &result),
                                Ok(()),
                                "round {round} step {step} ({label}) at ({d}, {k})"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(extended.overlap(), OverlapForm::Window, "round {round}");
        assert_eq!(extended.extensions(), 3, "round {round}");
    }
}

/// TB-OLSQ2 differential: block and SWAP optimization with the incremental
/// block-window extension on must report the same block counts and SWAP
/// counts as the rebuild-on-growth path.
#[test]
fn tb_incremental_and_rebuild_agree() {
    let mut rng = Rng::seed_from_u64(0x1AC4_0002);
    for round in 0..5 {
        let circuit = random_circuit(&mut rng, 4, 6);
        let device = &devices()[rng.gen_range(0usize..3)];
        let on = SynthesisConfig::with_swap_duration(1);
        let mut off = on.clone();
        off.incremental = false;

        let blocks_on = TbOlsq2Synthesizer::new(on.clone())
            .optimize_blocks(&circuit, device)
            .expect("incremental block optimization");
        let blocks_off = TbOlsq2Synthesizer::new(off.clone())
            .optimize_blocks(&circuit, device)
            .expect("rebuild block optimization");
        assert_eq!(
            blocks_on.block_count, blocks_off.block_count,
            "round {round}: block optimum diverged"
        );
        assert_eq!(blocks_off.outcome.extensions, 0, "round {round}");

        let swaps_on = TbOlsq2Synthesizer::new(on)
            .optimize_swaps(&circuit, device)
            .expect("incremental swap optimization");
        let swaps_off = TbOlsq2Synthesizer::new(off)
            .optimize_swaps(&circuit, device)
            .expect("rebuild swap optimization");
        assert_eq!(
            swaps_on.outcome.result.swap_count(),
            swaps_off.outcome.result.swap_count(),
            "round {round}: swap optimum diverged"
        );
        for (label, tb) in [
            ("blocks on", &blocks_on),
            ("blocks off", &blocks_off),
            ("swaps on", &swaps_on),
            ("swaps off", &swaps_off),
        ] {
            assert_eq!(
                verify(&circuit, device, &tb.outcome.result),
                Ok(()),
                "round {round} ({label})"
            );
        }
    }
}

/// Synthesizer-level differential with growth forced: a tight initial
/// window (`tub_factor = 1.0`, SWAP duration 3) makes phase-1 relaxation
/// outgrow the window, so the incremental runs must actually extend —
/// and still land on exactly the rebuild path's optima.
#[test]
fn forced_window_growth_extends_and_agrees() {
    let mut rng = Rng::seed_from_u64(0x1AC4_0003);
    let mut total_extensions = 0usize;
    for round in 0..6 {
        let circuit = random_circuit(&mut rng, 4, 8);
        let device = line(4);
        let mut on = SynthesisConfig::with_swap_duration(3);
        on.tub_factor = 1.0;
        let mut off = on.clone();
        off.incremental = false;

        let a = Olsq2Synthesizer::new(on)
            .optimize_depth(&circuit, &device)
            .expect("incremental depth optimization");
        let b = Olsq2Synthesizer::new(off)
            .optimize_depth(&circuit, &device)
            .expect("rebuild depth optimization");
        assert!(a.proven_optimal && b.proven_optimal, "round {round}");
        assert_eq!(
            a.result.depth, b.result.depth,
            "round {round}: depth optimum diverged"
        );
        assert_eq!(b.extensions, 0, "round {round}: rebuild path extended");
        for (label, out) in [("incremental", &a), ("rebuild", &b)] {
            assert_eq!(
                verify(&circuit, &device, &out.result),
                Ok(()),
                "round {round} ({label})"
            );
        }
        total_extensions += a.extensions;
    }
    assert!(
        total_extensions >= 1,
        "no round triggered a window extension: the growth path went untested"
    );
}

/// Sharing-fuzz-style round: a diversified same-encoding cohort with
/// clause sharing on and a tight initial window, so learned clauses are
/// imported while members extend their windows in place. The portfolio
/// optimum must match a lone rebuild-only synthesizer, and the sharing
/// stats must prove imports actually happened.
#[test]
fn sharing_portfolio_agrees_and_imports_across_extensions() {
    let circuit = qaoa_circuit(8, 5);
    let device = grid(3, 3);
    let mut base = SynthesisConfig::with_swap_duration(1);
    base.pareto_relax_limit = Some(0);
    base.tub_factor = 1.0;
    let mut lone_cfg = base.clone();
    lone_cfg.incremental = false;

    let lone = Olsq2Synthesizer::new(lone_cfg)
        .optimize_swaps(&circuit, &device)
        .expect("lone rebuild-only synthesizer solves")
        .best;
    assert_eq!(lone.extensions, 0);

    let cfg = PortfolioConfig::standard()
        .with_encodings(vec![EncodingConfig::int()])
        .diversify(3)
        .with_sharing()
        .with_seed(23);
    let report = PortfolioSynthesizer::with_config(base, &cfg)
        .optimize_swaps_report(&circuit, &device)
        .expect("sharing portfolio solves");
    assert_eq!(
        report.outcome.result.swap_count(),
        lone.result.swap_count(),
        "sharing + incremental diverged from rebuild-only reference"
    );
    assert_eq!(verify(&circuit, &device, &report.outcome.result), Ok(()));
    let stats = report.sharing.expect("sharing was enabled");
    assert!(
        stats.imported > 0,
        "no clauses imported across the cohort: {stats:?}"
    );
}
