//! Differential tests for encode-once cohort forking: a member spawned
//! by [`FlatModel::fork`] (via [`ModelSeed`]) must be observationally
//! identical to a freshly encoded member — same SAT/UNSAT verdict at
//! every depth bound, same proven optima out of the portfolio, same
//! behavior across the [`SolverFeatures`] grid — while sharing clauses
//! across one variable-space fence without a single fingerprint drop,
//! and while producing refutations the RUP checker accepts. QAOA, QFT,
//! and QUEKO instances cover the paper's benchmark families.

use std::sync::Arc;

use olsq2::{
    ClauseExchange, CohortEndpoint, CubeParams, CubeSynthesizer, EncodingConfig, FlatModel,
    ModelSeed, Olsq2Synthesizer, OverlapForm, PortfolioConfig, PortfolioSynthesizer, Recorder,
    SharedClausePool, SolverDiversification, SolverFeatures, SynthesisConfig,
};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit};
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_layout::verify;
use olsq2_sat::SolveResult;

/// QAOA / QFT / QUEKO instances (name, circuit, device, swap duration).
fn benchmarks() -> Vec<(&'static str, Circuit, CouplingGraph, usize)> {
    let queko_dev = grid(2, 3);
    let queko = queko_circuit(queko_dev.num_qubits(), queko_dev.edges(), 3, 12, 7).circuit;
    vec![
        ("qaoa-4", qaoa_circuit(4, 11), line(4), 1),
        ("qft-4", qft_decomposed(4), line(4), 3),
        ("queko-2x3", queko, queko_dev, 1),
    ]
}

/// Solver feature configurations a fork must behave identically under:
/// the modern default, the legacy baseline, and a mixed point that turns
/// off exactly the features with bespoke per-solver state (ternary watch
/// lists, chronological backtracking) so the fork's state copy is on
/// trial, not just the happy path.
fn features_grid() -> Vec<(&'static str, SolverFeatures)> {
    vec![
        ("modern", SolverFeatures::default()),
        ("legacy", SolverFeatures::legacy()),
        (
            "mixed",
            SolverFeatures {
                ternary_watches: false,
                chrono_backtrack: false,
                ..SolverFeatures::default()
            },
        ),
    ]
}

/// Walks both models down from `t_ub`, comparing the verdict at every
/// depth bound until the first UNSAT (inclusive); SAT layouts must
/// verify on both sides.
fn assert_bound_descent_agrees(
    label: &str,
    circuit: &Circuit,
    device: &CouplingGraph,
    forked: &mut FlatModel,
    fresh: &mut FlatModel,
    t_ub: usize,
) {
    for k in (1..=t_ub).rev() {
        let fork_act = forked.depth_bound(k);
        let fresh_act = fresh.depth_bound(k);
        let fork_res = forked.solve(&[fork_act]);
        let fresh_res = fresh.solve(&[fresh_act]);
        assert_eq!(
            fork_res, fresh_res,
            "{label}: verdict diverged at depth bound {k}"
        );
        match fork_res {
            SolveResult::Sat => {
                for (side, model) in [("forked", &*forked), ("fresh", &*fresh)] {
                    let result = model.extract();
                    assert!(
                        result.depth <= k,
                        "{label} ({side}): depth {} > bound {k}",
                        result.depth
                    );
                    assert_eq!(
                        verify(circuit, device, &result),
                        Ok(()),
                        "{label} ({side}) at bound {k}"
                    );
                }
            }
            SolveResult::Unsat => break,
            SolveResult::Unknown => panic!("{label}: solver returned Unknown at bound {k}"),
        }
    }
}

/// Model-level differential over the benchmark × feature grid: a member
/// forked from a [`ModelSeed`] and a freshly encoded member with the
/// same (diversified) config must report the same verdict at every
/// depth bound down to the first refutation. The member config differs
/// from the template only in diversification, so this also pins the
/// fingerprint contract: diversification must not change the instance
/// fingerprint, or `fork_for` would refuse to serve the member.
#[test]
fn forked_members_match_fresh_builds_across_features() {
    for (name, circuit, device, sd) in &benchmarks() {
        let t_ub = DependencyGraph::new(circuit).longest_chain().max(1) + 2;
        for (fname, features) in features_grid() {
            let mut cfg = SynthesisConfig::with_swap_duration(*sd);
            cfg.solver_features = features;
            let template = FlatModel::build(circuit, device, &cfg, t_ub).expect("template build");
            let seed = ModelSeed::capture(
                template,
                ModelSeed::instance_fingerprint(circuit, device, &cfg),
            );
            for member in 1..=2usize {
                let mut mcfg = cfg.clone();
                mcfg.diversification = SolverDiversification::variant(0xF0CC, member);
                let instance = ModelSeed::instance_fingerprint(circuit, device, &mcfg);
                assert_eq!(
                    instance,
                    seed.instance(),
                    "{name}/{fname}: diversification leaked into the instance fingerprint"
                );
                let mut forked = seed
                    .fork_for(&mcfg, circuit, device, instance, t_ub, OverlapForm::PerGate)
                    .expect("seed serves the same instance at the same window");
                let mut fresh =
                    FlatModel::build(circuit, device, &mcfg, t_ub).expect("fresh build");
                assert_bound_descent_agrees(
                    &format!("{name}/{fname} member {member}"),
                    circuit,
                    device,
                    &mut forked,
                    &mut fresh,
                    t_ub,
                );
            }
        }
    }
}

/// Window-growth differential: a seed captured at a small window must
/// serve a *larger* window by forking and growing the fork in place
/// ([`FlatModel::extend_window`]), and the grown fork must agree with a
/// model freshly built at the large window at every depth bound.
#[test]
fn forked_window_growth_matches_fresh_build() {
    for (name, circuit, device, sd) in &benchmarks() {
        let base_t_ub = DependencyGraph::new(circuit).longest_chain().max(1);
        let grown_t_ub = base_t_ub + 2;
        let cfg = SynthesisConfig::with_swap_duration(*sd);
        let template = FlatModel::build(circuit, device, &cfg, base_t_ub).expect("template build");
        let seed = ModelSeed::capture(
            template,
            ModelSeed::instance_fingerprint(circuit, device, &cfg),
        );
        let mut mcfg = cfg.clone();
        mcfg.diversification = SolverDiversification::variant(0x6B0, 1);
        // A per-gate template never serves a window-form build.
        assert!(
            seed.fork_for(
                &mcfg,
                circuit,
                device,
                seed.instance(),
                grown_t_ub,
                OverlapForm::Window
            )
            .is_none(),
            "{name}: seed served the other overlap form"
        );
        let mut forked = seed
            .fork_for(
                &mcfg,
                circuit,
                device,
                seed.instance(),
                grown_t_ub,
                OverlapForm::PerGate,
            )
            .expect("incremental seed serves a larger window");
        assert_eq!(forked.t_ub(), grown_t_ub, "{name}: fork did not grow");
        assert_eq!(
            forked.extensions(),
            1,
            "{name}: growth must extend in place"
        );
        let mut fresh = FlatModel::build(circuit, device, &mcfg, grown_t_ub).expect("fresh build");
        assert_bound_descent_agrees(
            &format!("{name} grown fork"),
            circuit,
            device,
            &mut forked,
            &mut fresh,
            grown_t_ub,
        );
    }
}

/// Portfolio-level differential: a diversified same-encoding sharing
/// cohort with encode-once forking on (the default) must land on
/// exactly the optimum the fork-free portfolio and a lone synthesizer
/// report — and the trace must show the fork path actually ran.
#[test]
fn portfolio_optima_agree_with_and_without_fork_spawn() {
    for (name, circuit, device, sd) in &benchmarks() {
        let lone = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(*sd))
            .optimize_depth(circuit, device)
            .expect("lone synthesizer solves");
        assert!(lone.proven_optimal, "{name}: lone optimum not proven");

        let mut reports = Vec::new();
        for fork_spawn in [true, false] {
            let mut base = SynthesisConfig::with_swap_duration(*sd);
            base.fork_spawn = fork_spawn;
            base.recorder = Recorder::new();
            let cfg = PortfolioConfig::standard()
                .with_encodings(vec![EncodingConfig::int()])
                .diversify(3)
                .with_sharing()
                .with_seed(29);
            let report = PortfolioSynthesizer::with_config(base.clone(), &cfg)
                .optimize_depth_report(circuit, device)
                .expect("portfolio solves");
            let forked_spans = base
                .recorder
                .snapshot()
                .spans
                .iter()
                .filter(|s| s.name == "fork")
                .count();
            if fork_spawn {
                assert!(
                    forked_spans >= 2,
                    "{name}: cohort of 3 should fork its 2 non-template members, saw {forked_spans}"
                );
            } else {
                assert_eq!(forked_spans, 0, "{name}: --no-fork path still forked");
            }
            reports.push((fork_spawn, report));
        }
        for (fork_spawn, report) in &reports {
            assert!(
                report.outcome.proven_optimal,
                "{name} (fork_spawn={fork_spawn}): optimum not proven"
            );
            assert_eq!(
                report.outcome.result.depth, lone.result.depth,
                "{name} (fork_spawn={fork_spawn}): portfolio optimum diverged from lone"
            );
            assert_eq!(
                verify(circuit, device, &report.outcome.result),
                Ok(()),
                "{name} (fork_spawn={fork_spawn})"
            );
        }
    }
}

/// Sharing-fence differential: one template plus two forks, all three
/// endpoints aligned at the same depth-bound fence, refute the same
/// sub-optimal bound in turn. Clauses must flow (exports and imports
/// both nonzero) and *nothing* may be dropped by the variable-space
/// fence — a forked member that failed to inherit the template's
/// `(fingerprint, num_vars)` pair, or whose allocation-history chain
/// diverged on the bound request, would show up here as a nonzero
/// filtered count.
#[test]
fn forked_cohort_shares_at_one_fence_without_violations() {
    let device = grid(2, 3);
    let circuit = qaoa_circuit(6, 5);
    let base = SynthesisConfig::with_swap_duration(1);
    let seq = Olsq2Synthesizer::new(base.clone())
        .optimize_depth(&circuit, &device)
        .expect("sequential reference solves");
    assert!(seq.proven_optimal);
    let opt = seq.result.depth;
    assert!(
        opt >= 2,
        "need a refutable sub-optimal bound, optimum is {opt}"
    );

    let pool = Arc::new(SharedClausePool::new(3, 1 << 14));
    let endpoints: Vec<Arc<CohortEndpoint>> = (0..3)
        .map(|i| Arc::new(CohortEndpoint::new(pool.clone(), i, Recorder::disabled())))
        .collect();
    let mut cfg0 = base.clone();
    cfg0.clause_exchange = Some(endpoints[0].clone() as Arc<dyn ClauseExchange>);
    let mut template = FlatModel::build(&circuit, &device, &cfg0, opt + 1).expect("template build");
    let mut cohort = Vec::with_capacity(3);
    for (i, endpoint) in endpoints.iter().enumerate().skip(1) {
        let mut cfg = base.clone();
        cfg.diversification = SolverDiversification::variant(0x5EED, i);
        cfg.clause_exchange = Some(endpoint.clone() as Arc<dyn ClauseExchange>);
        cohort.push(template.fork(&cfg));
    }
    cohort.insert(0, template);

    // Every member requests the bound *before* anyone searches, so all
    // three fences advance through the identical allocation history and
    // end bound to the identical fingerprint.
    let activators: Vec<_> = cohort.iter_mut().map(|m| m.depth_bound(opt - 1)).collect();
    for (i, (member, act)) in cohort.iter_mut().zip(&activators).enumerate() {
        assert_eq!(
            member.solve(&[*act]),
            SolveResult::Unsat,
            "member {i} failed to refute depth {}",
            opt - 1
        );
    }

    let mut exported = 0;
    let mut imported = 0;
    let mut filtered = 0;
    for endpoint in &endpoints {
        let stats = endpoint.stats();
        exported += stats.exported;
        imported += stats.imported;
        filtered += stats.filtered;
    }
    assert!(exported > 0, "no clauses exported across the forked cohort");
    assert!(imported > 0, "no clauses imported across the forked cohort");
    assert_eq!(
        filtered, 0,
        "fingerprint violation: {filtered} clauses dropped by the fence in an aligned cohort"
    );
}

/// Proof differential: refutations produced by forked members must pass
/// the RUP checker — at the model level (a fork of a proof-logging
/// template refutes a sub-optimal bound; the core-lemma log checks) and
/// at the synthesis level (prove-mode cube with forked workers stitches
/// a self-contained optimality certificate).
#[test]
fn forked_unsat_proofs_rup_check() {
    let circuit = qaoa_circuit(4, 42);
    let device = line(4);
    let base = SynthesisConfig::with_swap_duration(1);
    let seq = Olsq2Synthesizer::new(base.clone())
        .optimize_depth(&circuit, &device)
        .expect("sequential reference solves");
    assert!(seq.proven_optimal);
    let opt = seq.result.depth;
    assert!(
        opt >= 2,
        "need a refutable sub-optimal bound, optimum is {opt}"
    );

    let mut cfg = base.clone();
    cfg.proof_log = true;
    let mut template = FlatModel::build(&circuit, &device, &cfg, opt + 1).expect("template build");
    let mut fcfg = cfg.clone();
    fcfg.diversification = SolverDiversification::variant(0xBEEF, 1);
    let mut forked = template.fork(&fcfg);
    forked.solver_mut().set_core_lemmas(true);
    let act = forked.depth_bound(opt - 1);
    assert_eq!(forked.solve(&[act]), SolveResult::Unsat);
    let core = forked.solver_mut().final_conflict().to_vec();
    assert!(!core.is_empty(), "UNSAT under assumptions must name a core");
    let mut proof = forked
        .solver_mut()
        .take_proof()
        .expect("proof logging must survive the fork");
    assert!(proof.num_lemmas() > 0, "refutation recorded no lemmas");
    // Close the log into a refutation of formula ∧ core: the core-lemma
    // pass logged the negated core as the final lemma, so asserting the
    // core assumptions (the bound activator and the window guard) as
    // axioms makes the empty clause RUP — the same move the cube
    // stitcher applies to base assumptions.
    for &a in &core {
        proof.push(olsq2_sat::ProofStep::Original(vec![a]));
    }
    proof.push(olsq2_sat::ProofStep::Empty);
    assert!(proof.claims_unsat());
    proof
        .check()
        .expect("forked member's refutation must RUP-check");

    // Synthesis level: default fork_spawn means workers 1..n of the
    // prove-mode cube cohort are forks; the stitched certificate they
    // contribute to must still check.
    let mut prove_cfg = SynthesisConfig::with_swap_duration(1);
    prove_cfg.recorder = Recorder::new();
    let out = CubeSynthesizer::new(
        prove_cfg.clone(),
        CubeParams {
            workers: 2,
            prove: true,
            ..CubeParams::default()
        },
    )
    .optimize_depth(&circuit, &device)
    .expect("prove-mode cube synthesis");
    assert!(out.outcome.proven_optimal);
    assert_eq!(out.outcome.result.depth, opt);
    let snap = prove_cfg.recorder.snapshot();
    assert!(
        snap.spans.iter().any(|s| s.name == "fork"),
        "prove-mode cohort spawned no forked workers"
    );
    let t_lb = DependencyGraph::new(&circuit).longest_chain().max(1);
    if opt > t_lb {
        let proof = out.proof.expect("stitched optimality certificate");
        assert!(proof.claims_unsat());
        proof
            .check()
            .expect("stitched certificate from forked workers must RUP-check");
    }
}
