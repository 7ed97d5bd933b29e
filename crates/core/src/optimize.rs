//! The optimization strategies of §III-B: depth optimization by geometric
//! relaxation + decrement, and SWAP-count optimization by iterative descent
//! along a two-dimensional (depth, swaps) Pareto search — all incremental
//! over one solver via activation-literal bounds.

use crate::config::SynthesisConfig;
use crate::model::{FlatModel, ModelError, ModelSeed, OverlapForm};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_layout::LayoutResult;
use olsq2_obs::SpanGuard;
use olsq2_sat::{Lit, SolveResult, Stats};
use std::time::{Duration, Instant};

/// Stable trace-field value for a solve result.
pub(crate) fn result_str(r: SolveResult) -> &'static str {
    match r {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

/// Errors from the synthesis drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// Model construction failed.
    Model(ModelError),
    /// The time/conflict budget expired before any valid solution was found.
    BudgetExhausted,
    /// The depth window grew past the hard cap without a solution
    /// (indicates an unroutable instance).
    WindowExhausted,
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Model(e) => write!(f, "model construction failed: {e}"),
            SynthesisError::BudgetExhausted => {
                write!(f, "budget exhausted before a first solution was found")
            }
            SynthesisError::WindowExhausted => {
                write!(f, "no solution within the maximum depth window")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<ModelError> for SynthesisError {
    fn from(e: ModelError) -> Self {
        SynthesisError::Model(e)
    }
}

/// Hard cap on the depth window to catch unroutable instances.
pub(crate) const MAX_T_UB: usize = 4096;

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The best layout found (verified shape; callers may re-verify).
    pub result: LayoutResult,
    /// Whether optimality was proven (UNSAT at the next tighter bound or
    /// the structural lower bound reached).
    pub proven_optimal: bool,
    /// Number of solver invocations.
    pub iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `(variables, clauses)` of the final model.
    pub formula_size: (usize, usize),
    /// Cumulative solver statistics.
    pub solver_stats: Stats,
    /// Number of in-place window extensions performed on the final model
    /// (zero when the incremental path is disabled or never triggered).
    pub extensions: usize,
}

/// Result of SWAP optimization: the Pareto frontier explored.
#[derive(Debug, Clone)]
pub struct SwapOptimizationOutcome {
    /// The minimum-SWAP solution found (last Pareto point).
    pub best: SynthesisOutcome,
    /// `(depth, swap_count)` Pareto points in exploration order.
    pub pareto: Vec<(usize, usize)>,
}

/// The OLSQ2 synthesizer: builds the succinct model and runs the paper's
/// optimization loops.
///
/// # Examples
///
/// ```
/// use olsq2::{Olsq2Synthesizer, SynthesisConfig};
/// use olsq2_arch::line;
/// use olsq2_circuit::{Circuit, Gate, GateKind};
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(3);
/// circuit.push(Gate::two(GateKind::Cx, 0, 1));
/// circuit.push(Gate::two(GateKind::Cx, 1, 2));
/// let graph = line(3);
/// let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
/// let outcome = synth.optimize_depth(&circuit, &graph)?;
/// assert!(outcome.proven_optimal);
/// assert_eq!(outcome.result.depth, 2);
/// assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Olsq2Synthesizer {
    config: SynthesisConfig,
}

/// Everything phase 1 of depth optimization produces: the first
/// satisfiable bound (already published as the incumbent) and the model
/// grown to the window that admitted it.
pub(crate) struct FirstSat {
    pub model: FlatModel,
    pub result: LayoutResult,
    pub t_lb: usize,
    pub iterations: usize,
}

impl Olsq2Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Olsq2Synthesizer {
        Olsq2Synthesizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.config.time_budget.map(|b| Instant::now() + b)
    }

    pub(crate) fn initial_t_ub(&self, t_lb: usize) -> usize {
        let factor = (t_lb as f64 * self.config.tub_factor).ceil() as usize;
        factor.max(t_lb + self.config.swap_duration).max(1)
    }

    /// Builds the model at window `t_ub` with the overlap form the
    /// caller's objective runs fastest on: [`OverlapForm::Window`] for a
    /// SWAP descent, [`OverlapForm::PerGate`] otherwise.
    pub(crate) fn build_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
        overlap: OverlapForm,
    ) -> Result<FlatModel, SynthesisError> {
        // Fork from an encoded template when one is attached and matches
        // this exact instance and form; otherwise encode from scratch.
        if self.config.fork_spawn {
            if let Some(seed) = &self.config.model_seed {
                let instance = ModelSeed::instance_fingerprint(circuit, graph, &self.config);
                if let Some(mut model) =
                    seed.fork_for(&self.config, circuit, graph, instance, t_ub, overlap)
                {
                    let span = self.config.recorder.span("fork");
                    span.set("t_ub", t_ub);
                    model
                        .solver_mut()
                        .set_recorder(self.config.recorder.clone());
                    model.solver_mut().set_probe(self.config.probe.clone());
                    return Ok(model);
                }
            }
        }
        let span = self.config.recorder.span("encode");
        span.set("t_ub", t_ub);
        let mut model = FlatModel::build_with_overlap(circuit, graph, &self.config, t_ub, overlap)?;
        if self.config.recorder.is_enabled() {
            let (vars, clauses) = model.formula_size();
            span.set("vars", vars);
            span.set("clauses", clauses);
            for (fam, c) in model.breakdown().iter() {
                span.set(fam.vars_key(), c.vars);
                span.set(fam.clauses_key(), c.clauses);
            }
        }
        model
            .solver_mut()
            .set_recorder(self.config.recorder.clone());
        model.solver_mut().set_probe(self.config.probe.clone());
        Ok(model)
    }

    /// Grows `model` to the depth window `t_ub` — in place via
    /// [`FlatModel::extend_window`] when the incremental path applies
    /// (keeping the solver's learned clauses alive), otherwise by
    /// rebuilding from scratch.
    pub(crate) fn grow_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        model: &mut FlatModel,
        t_ub: usize,
    ) -> Result<(), SynthesisError> {
        if self.config.incremental {
            let span = self.config.recorder.span("extend");
            span.set("t_ub", t_ub);
            let (vars_before, clauses_before) = model.formula_size();
            let extend_start = Instant::now();
            if model.extend_window(circuit, graph, t_ub) {
                let (vars, clauses) = model.formula_size();
                span.set("extend_us", extend_start.elapsed().as_micros() as u64);
                span.set("appended_vars", vars - vars_before);
                span.set("appended_clauses", clauses.saturating_sub(clauses_before));
                return Ok(());
            }
            span.set("result", "rebuild");
        }
        *model = self.build_model(circuit, graph, t_ub, model.overlap())?;
        Ok(())
    }

    pub(crate) fn dependency_graph(&self, circuit: &Circuit) -> DependencyGraph {
        if self.config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        }
    }

    /// Publishes an intermediate solution to the configured incumbent
    /// slot, so deadline-bound callers can recover the best-so-far when a
    /// later solve is cut off.
    pub(crate) fn publish_incumbent(&self, result: &LayoutResult) {
        if let Some(slot) = &self.config.incumbent {
            slot.publish(result);
        }
    }

    /// Snapshot-on-preempt: when a budget cut ends a run before
    /// optimality is proven and a snapshot slot is configured, fork the
    /// final model onto a neutral configuration (no budgets, no stop
    /// flag, no exchange, no telemetry — those are per-run) and publish
    /// it, so a resubmission can resume from the encoded state — clause
    /// arena, learned clauses, phases, bound activators — instead of
    /// from scratch.
    pub(crate) fn capture_snapshot(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        model: &mut FlatModel,
    ) {
        let Some(slot) = &self.config.snapshot_slot else {
            return;
        };
        if !self.config.fork_spawn {
            return;
        }
        let mut neutral = self.config.clone();
        neutral.time_budget = None;
        neutral.conflict_budget = None;
        neutral.stop_flag = None;
        neutral.incumbent = None;
        neutral.clause_exchange = None;
        neutral.model_seed = None;
        neutral.snapshot_slot = None;
        neutral.diversification = Default::default();
        neutral.recorder = olsq2_obs::Recorder::disabled();
        neutral.probe = olsq2_obs::Probe::disabled();
        let template = model.fork(&neutral);
        let instance = ModelSeed::instance_fingerprint(circuit, graph, &neutral);
        slot.publish(ModelSeed::capture(template, instance));
    }

    /// Opens one `iteration` span tagged with the active objective bounds.
    pub(crate) fn iteration_span(&self, objective: &str, bounds: &[(&str, usize)]) -> SpanGuard {
        let span = self.config.recorder.span("iteration");
        span.set("objective", objective);
        for &(k, v) in bounds {
            span.set(k, v);
        }
        span
    }

    /// Tags an `iteration` span with the solver-stat deltas of the solve
    /// it wraps — the search-divergence signals (conflicts, restarts,
    /// decisions per conflict) that `olsq2 trace-diff` uses to attribute
    /// per-iteration time differences between two runs.
    pub(crate) fn set_iteration_deltas(span: &SpanGuard, before: Stats, after: Stats) {
        span.set("conflicts", after.conflicts - before.conflicts);
        span.set("decisions", after.decisions - before.decisions);
        span.set("propagations", after.propagations - before.propagations);
        span.set("restarts", after.restarts - before.restarts);
    }

    /// One solver probe under the caller's `iteration` span: arms the
    /// probe's bound activators (timed as `encode_us` when there are
    /// any), the run's deadline, conflict budget and stop flag, solves,
    /// and tags the span with the verdict, the solve time and the
    /// solver-stat deltas.
    pub(crate) fn probe(
        &self,
        span: SpanGuard,
        model: &mut FlatModel,
        deadline: Option<Instant>,
        activators: impl FnOnce(&mut FlatModel) -> Vec<Lit>,
    ) -> SolveResult {
        let encode_start = Instant::now();
        let assumptions = activators(model);
        if !assumptions.is_empty() {
            span.set("encode_us", encode_start.elapsed().as_micros() as u64);
        }
        let solver = model.solver_mut();
        solver.set_deadline(deadline);
        solver.set_conflict_budget(self.config.conflict_budget);
        solver.set_stop_flag(self.config.stop_flag.clone());
        let stats_before = solver.stats();
        let solve_start = Instant::now();
        let res = model.solve(&assumptions);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set("result", result_str(res));
        Self::set_iteration_deltas(&span, stats_before, model.solver_mut().stats());
        res
    }

    /// The outcome record for `result` found on `model`.
    fn outcome(
        model: &mut FlatModel,
        result: LayoutResult,
        proven_optimal: bool,
        iterations: usize,
        start: Instant,
    ) -> SynthesisOutcome {
        SynthesisOutcome {
            result,
            proven_optimal,
            iterations,
            elapsed: start.elapsed(),
            formula_size: model.formula_size(),
            solver_stats: model.solver_mut().stats(),
            extensions: model.extensions(),
        }
    }

    /// Builds the model and solves *once* with the full window and no
    /// objective bound — the Fig. 1 / Table I "solving time" measurement.
    ///
    /// # Errors
    ///
    /// Propagates model errors; `Ok(None)` if the budget expired.
    pub fn solve_feasible(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
    ) -> Result<Option<SynthesisOutcome>, SynthesisError> {
        let start = Instant::now();
        let outer = self.config.recorder.span("solve_feasible");
        outer.set("t_ub", t_ub);
        let mut model = self.build_model(circuit, graph, t_ub, OverlapForm::PerGate)?;
        let span = self.iteration_span("feasible", &[("t_bound", t_ub)]);
        match self.probe(span, &mut model, self.deadline(), |_| Vec::new()) {
            SolveResult::Sat => {
                let result = model.extract();
                self.publish_incumbent(&result);
                Ok(Some(Self::outcome(&mut model, result, false, 1, start)))
            }
            SolveResult::Unsat => Err(SynthesisError::WindowExhausted),
            SolveResult::Unknown => Ok(None),
        }
    }

    /// Phase 1 of depth optimization (§III-B-1): start from
    /// `T_B = T_LB`, relax geometrically (`r = 1.3` below 100, else
    /// `1.1`) until the first SAT. Shared between the sequential
    /// decrement loop below and the cube-and-conquer optimizer
    /// ([`crate::cube::CubeSynthesizer`]), which replaces only phase 2.
    ///
    /// When `T_B` outgrows the window, the window grows to exactly `T_B`
    /// (§III-B-1 last sentence): `T_B` already grows geometrically, so
    /// the extensions stay O(log), and the model every later phase runs
    /// on is no larger than the first satisfiable bound needs. The model
    /// carries `overlap`, the form the caller's later phases run on.
    pub(crate) fn first_feasible_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        deadline: Option<Instant>,
        overlap: OverlapForm,
    ) -> Result<FirstSat, SynthesisError> {
        let dag = self.dependency_graph(circuit);
        let t_lb = dag.longest_chain().max(1);
        let mut model = self.build_model(circuit, graph, self.initial_t_ub(t_lb), overlap)?;
        let mut iterations = 0usize;
        let mut t_b = t_lb;
        loop {
            if t_b > model.t_ub() {
                self.grow_model(circuit, graph, &mut model, t_b)?;
            }
            iterations += 1;
            let span = self.iteration_span("depth", &[("t_bound", t_b)]);
            match self.probe(span, &mut model, deadline, |m| vec![m.depth_bound(t_b)]) {
                SolveResult::Sat => {
                    let result = model.extract();
                    self.publish_incumbent(&result);
                    return Ok(FirstSat {
                        model,
                        result,
                        t_lb,
                        iterations,
                    });
                }
                SolveResult::Unsat => {
                    let r = if t_b < 100 { 1.3 } else { 1.1 };
                    t_b = ((t_b as f64 * r).ceil() as usize).max(t_b + 1);
                    if t_b > MAX_T_UB {
                        return Err(SynthesisError::WindowExhausted);
                    }
                }
                SolveResult::Unknown => {
                    // The run ends here without an outcome, so this is
                    // its one snapshot.
                    self.capture_snapshot(circuit, graph, &mut model);
                    return Err(SynthesisError::BudgetExhausted);
                }
            }
        }
    }

    /// Phases 1 and 2 of depth optimization on one model. Returns the
    /// model the decrement ended on — learnt clauses, cached bound
    /// activators and grown window intact — so the SWAP phase continues
    /// on it. Snapshot capture is left to the outermost driver.
    fn depth_phase(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        deadline: Option<Instant>,
        outer: &SpanGuard,
        overlap: OverlapForm,
    ) -> Result<(FlatModel, SynthesisOutcome), SynthesisError> {
        let start = Instant::now();
        let FirstSat {
            mut model,
            result: mut current,
            t_lb,
            mut iterations,
        } = self.first_feasible_depth(circuit, graph, deadline, overlap)?;
        outer.set("t_lb", t_lb);

        // Phase 2: decrement until UNSAT (or the lower bound is reached).
        let mut proven_optimal = false;
        loop {
            if current.depth <= t_lb {
                proven_optimal = true;
                break;
            }
            let k = current.depth - 1;
            iterations += 1;
            let span = self.iteration_span("depth", &[("t_bound", k)]);
            match self.probe(span, &mut model, deadline, |m| vec![m.depth_bound(k)]) {
                SolveResult::Sat => {
                    current = model.extract();
                    self.publish_incumbent(&current);
                }
                SolveResult::Unsat => {
                    proven_optimal = true;
                    break;
                }
                SolveResult::Unknown => break, // budget: keep best-so-far
            }
        }
        let outcome = Self::outcome(&mut model, current, proven_optimal, iterations, start);
        Ok((model, outcome))
    }

    /// Depth optimization (§III-B-1): start from `T_B = T_LB`, relax
    /// geometrically (`r = 1.3` below 100, else `1.1`) until SAT, then
    /// decrement until UNSAT.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExhausted`] if no solution was found in
    /// budget; [`SynthesisError::WindowExhausted`] for unroutable inputs.
    pub fn optimize_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        let outer = self.config.recorder.span("optimize_depth");
        let (mut model, outcome) = self.depth_phase(
            circuit,
            graph,
            self.deadline(),
            &outer,
            OverlapForm::PerGate,
        )?;
        outer.set("iterations", outcome.iterations);
        outer.set("proven_optimal", outcome.proven_optimal);
        if !outcome.proven_optimal {
            self.capture_snapshot(circuit, graph, &mut model);
        }
        Ok(outcome)
    }

    /// SWAP-count optimization (§III-B-2): obtain a depth-optimal solution
    /// first, then iteratively descend the SWAP bound; when the optimum
    /// under the current depth is proven, relax depth by one step and
    /// retry. Terminates when relaxing the depth brings no reduction
    /// (Pareto-optimal), the count reaches zero, or the budget expires.
    /// The SWAP phase continues on the depth phase's model, so its
    /// learnt clauses and window carry over. That model writes Eq. 2–3 in
    /// the window form ([`OverlapForm::Window`]), which the SWAP-bound
    /// refutations search much faster than the per-gate form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Olsq2Synthesizer::optimize_depth`].
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<SwapOptimizationOutcome, SynthesisError> {
        let start = Instant::now();
        let deadline = self.deadline();
        let outer = self.config.recorder.span("optimize_swaps");
        let (mut model, depth_outcome) =
            self.depth_phase(circuit, graph, deadline, &outer, OverlapForm::Window)?;
        let mut iterations = depth_outcome.iterations;
        let mut current = depth_outcome.result;
        let mut current_depth = current.depth;
        let capacity = current.swap_count().max(1);
        let mut pareto = vec![(current.depth, current.swap_count())];
        let mut proven;
        let mut relax_rounds = 0usize;

        'outer: loop {
            // Descend the SWAP bound at the current depth.
            loop {
                let s = current.swap_count();
                if s == 0 {
                    proven = true;
                    break 'outer;
                }
                iterations += 1;
                let span = self.iteration_span(
                    "swaps",
                    &[("t_bound", current_depth), ("swap_bound", s - 1)],
                );
                match self.probe(span, &mut model, deadline, |m| {
                    vec![m.depth_bound(current_depth), m.swap_bound(s - 1, capacity)]
                }) {
                    SolveResult::Sat => {
                        current = model.extract();
                        self.publish_incumbent(&current);
                        pareto.push((current.depth.max(1), current.swap_count()));
                    }
                    SolveResult::Unsat => {
                        proven = true; // optimal under this depth
                        break;
                    }
                    SolveResult::Unknown => {
                        proven = false;
                        break 'outer;
                    }
                }
            }

            // Relax the depth bound and see whether fewer SWAPs fit.
            if let Some(limit) = self.config.pareto_relax_limit {
                if relax_rounds >= limit {
                    break;
                }
            }
            relax_rounds += 1;
            let s = current.swap_count();
            let new_depth = current_depth + 1;
            if new_depth > model.t_ub() {
                let t_ub = (model.t_ub() + self.config.swap_duration.max(1)).min(MAX_T_UB);
                if new_depth > t_ub {
                    break;
                }
                self.grow_model(circuit, graph, &mut model, t_ub)?;
            }
            iterations += 1;
            let span =
                self.iteration_span("swaps", &[("t_bound", new_depth), ("swap_bound", s - 1)]);
            match self.probe(span, &mut model, deadline, |m| {
                vec![m.depth_bound(new_depth), m.swap_bound(s - 1, capacity)]
            }) {
                SolveResult::Sat => {
                    current = model.extract();
                    self.publish_incumbent(&current);
                    current_depth = new_depth;
                    pareto.push((current.depth, current.swap_count()));
                }
                SolveResult::Unsat => {
                    // No reduction from relaxing: Pareto-optimal (paper's
                    // termination condition 2).
                    proven = true;
                    break;
                }
                SolveResult::Unknown => {
                    proven = false;
                    break;
                }
            }
        }

        outer.set("iterations", iterations);
        outer.set("proven_optimal", proven);
        let best = Self::outcome(&mut model, current, proven, iterations, start);
        if !proven {
            self.capture_snapshot(circuit, graph, &mut model);
        }
        Ok(SwapOptimizationOutcome { best, pareto })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::{Circuit, Gate, GateKind};
    use olsq2_layout::verify;

    fn triangle() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        c
    }

    #[test]
    fn depth_optimal_on_triangle_line() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert!(out.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
        // Chain is 3 (all share qubits pairwise? g0-g1 share q1, g1-g2 share
        // q2, g0-g2 share q0: chain g0->g1->g2) and one swap is needed, so
        // optimal depth is 4 with S_D=1: 3 gates + 1 swap on a line.
        assert_eq!(out.result.depth, 4);
    }

    #[test]
    fn swap_optimal_on_triangle_line() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        assert!(out.best.proven_optimal);
        assert_eq!(out.best.result.swap_count(), 1);
        assert_eq!(verify(&circuit, &graph, &out.best.result), Ok(()));
        assert!(!out.pareto.is_empty());
    }

    #[test]
    fn zero_swaps_when_layout_fits() {
        // A 2x2-grid-compatible circuit: square interactions.
        let mut circuit = Circuit::new(4);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 2, 3));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        circuit.push(Gate::two(GateKind::Cx, 1, 3));
        let graph = grid(2, 2);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        assert_eq!(out.best.result.swap_count(), 0);
        assert!(out.best.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.best.result), Ok(()));
        // Depth-optimal too: two layers.
        let d = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert_eq!(d.result.depth, 2);
    }

    #[test]
    fn single_gate_instant() {
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        let graph = line(4);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3));
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert_eq!(out.result.depth, 1);
        assert!(out.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let circuit = triangle();
        let graph = grid(3, 3);
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.time_budget = Some(Duration::from_nanos(1));
        let synth = Olsq2Synthesizer::new(config);
        // With an absurd budget the first solve gives Unknown.
        match synth.optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            Ok(out) => {
                // Fast machines may finish the first solve before the
                // deadline check fires; then the result must be valid.
                assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn incumbent_published_on_every_improvement() {
        let circuit = triangle();
        let graph = line(3);
        let slot = crate::IncumbentSlot::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.incumbent = Some(slot.clone());
        let synth = Olsq2Synthesizer::new(config);
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        // The last published incumbent is the returned optimum.
        let published = slot.peek().expect("published");
        assert_eq!(published.depth, out.result.depth);
        assert_eq!(verify(&circuit, &graph, &published), Ok(()));
    }

    #[test]
    fn preset_stop_flag_aborts_before_any_solution() {
        let circuit = triangle();
        let graph = line(3);
        let slot = crate::IncumbentSlot::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.incumbent = Some(slot.clone());
        config.stop_flag = Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
            true,
        )));
        let synth = Olsq2Synthesizer::new(config);
        match synth.optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Nothing was found, so nothing was published.
        assert!(slot.is_empty());
    }

    #[test]
    fn traced_run_records_iteration_spans() {
        let circuit = triangle();
        let graph = line(3);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.recorder = rec.clone();
        let synth = Olsq2Synthesizer::new(config);
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        let snap = rec.snapshot();

        // One iteration span per solver invocation, each carrying its
        // bound, solve time, and result.
        let iters: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .collect();
        assert_eq!(iters.len(), out.best.iterations);
        for it in &iters {
            assert!(it.fields.iter().any(|(k, _)| k == "t_bound"));
            assert!(it.fields.iter().any(|(k, _)| k == "solve_us"));
            assert!(it.fields.iter().any(|(k, _)| k == "result"));
            assert!(it.dur_us.is_some());
        }
        // Encode spans report the per-family breakdown.
        let enc = snap
            .spans
            .iter()
            .find(|s| s.name == "encode")
            .expect("encode span");
        assert!(enc.fields.iter().any(|(k, _)| k == "clauses.mapping"));
        assert!(enc.fields.iter().any(|(k, _)| k == "vars.transition"));
        // Hierarchy: iteration spans nest under the optimize spans.
        let outer_ids: Vec<u64> = snap
            .spans
            .iter()
            .filter(|s| s.name == "optimize_depth" || s.name == "optimize_swaps")
            .map(|s| s.id)
            .collect();
        assert!(!outer_ids.is_empty());
        for it in &iters {
            assert!(it.parent.is_some_and(|p| outer_ids.contains(&p)));
        }
        // The solver's telemetry flowed into shared counters.
        assert!(
            snap.counters.get("sat.solves").copied().unwrap_or(0) >= out.best.iterations as u64
        );
    }

    /// Number of `encode` spans a traced run left behind.
    fn encodes(rec: &olsq2_obs::Recorder) -> usize {
        rec.snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "encode")
            .count()
    }

    #[test]
    fn swap_phase_continues_on_the_depth_model() {
        let circuit = triangle();
        let graph = line(3);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.recorder = rec.clone();
        let out = Olsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &graph)
            .expect("solves");
        assert!(out.best.proven_optimal);
        assert!(rec.snapshot().spans.iter().any(|s| s.name == "iteration"
            && s.fields
                .iter()
                .any(|(k, v)| k == "objective" && v.to_string() == "swaps")));
        // One model per request: the SWAP descent reused the depth one.
        assert_eq!(encodes(&rec), 1);
    }

    #[test]
    fn phase_one_grows_the_window_to_the_first_sat_bound() {
        // tof-3 on line5 with S_D = 3: T_LB = 31, phase 1 relaxes
        // 31 -> 41 -> 54 and finds its first layout at 54.
        let circuit = olsq2_circuit::generators::tof_circuit(3);
        let graph = line(5);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(3);
        config.recorder = rec.clone();
        let synth = Olsq2Synthesizer::new(config);
        let first = synth
            .first_feasible_depth(&circuit, &graph, None, OverlapForm::PerGate)
            .expect("solves");
        let t_bounds: Vec<usize> = rec
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .filter_map(|s| {
                s.fields
                    .iter()
                    .find(|(k, _)| k == "t_bound")
                    .and_then(|(_, v)| v.to_string().parse().ok())
            })
            .collect();
        let first_sat_bound = *t_bounds.last().expect("phase 1 probed");
        assert_eq!(t_bounds, vec![first.t_lb, 41, 54]);
        assert!(first.model.t_ub() <= synth.initial_t_ub(first.t_lb).max(first_sat_bound));
        assert_eq!(first.model.t_ub(), 54);
    }

    #[test]
    fn budget_cut_swap_phase_snapshots_the_warm_model() {
        let circuit = olsq2_circuit::generators::qaoa_circuit(6, 42);
        let graph = grid(2, 3);
        let reference = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1))
            .optimize_swaps(&circuit, &graph)
            .expect("solves");
        assert!(reference.best.proven_optimal);

        // The smallest per-probe conflict budget that lets the depth
        // phase finish but cuts a SWAP probe short.
        let swap_unknown = |rec: &olsq2_obs::Recorder| {
            rec.snapshot().spans.iter().any(|s| {
                let field = |key: &str| {
                    s.fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.to_string())
                };
                s.name == "iteration"
                    && field("objective").as_deref() == Some("swaps")
                    && field("result").as_deref() == Some("unknown")
            })
        };
        let mut cut = None;
        for budget in (0..14).map(|e| 1u64 << e) {
            let slot = crate::SnapshotSlot::new();
            let rec = olsq2_obs::Recorder::new();
            let mut config = SynthesisConfig::with_swap_duration(1);
            config.conflict_budget = Some(budget);
            config.snapshot_slot = Some(slot.clone());
            config.recorder = rec.clone();
            if let Ok(out) = Olsq2Synthesizer::new(config).optimize_swaps(&circuit, &graph) {
                if swap_unknown(&rec) {
                    assert!(!out.best.proven_optimal);
                    assert_eq!(verify(&circuit, &graph, &out.best.result), Ok(()));
                    cut = Some(slot);
                    break;
                }
            }
        }
        let slot = cut.expect("some budget cuts a SWAP probe");
        let seed = slot.peek().expect("budget cut published a snapshot");
        let mut config = SynthesisConfig::with_swap_duration(1);
        assert_eq!(
            seed.instance(),
            ModelSeed::instance_fingerprint(&circuit, &graph, &config)
        );

        // Resuming forks the snapshot instead of encoding, and proves the
        // same optimum as the uninterrupted run.
        let rec = olsq2_obs::Recorder::new();
        config.model_seed = Some(seed);
        config.recorder = rec.clone();
        let resumed = Olsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &graph)
            .expect("resumes");
        assert!(resumed.best.proven_optimal);
        assert_eq!(
            resumed.best.result.swap_count(),
            reference.best.result.swap_count()
        );
        assert_eq!(verify(&circuit, &graph, &resumed.best.result), Ok(()));
        assert_eq!(encodes(&rec), 0);
        assert!(rec.snapshot().spans.iter().any(|s| s.name == "fork"));
    }

    #[test]
    fn feasibility_solve_reports_formula_size() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth
            .solve_feasible(&circuit, &graph, 8)
            .expect("no model error")
            .expect("no budget");
        assert!(out.formula_size.0 > 0);
        assert!(out.formula_size.1 > 0);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
    }
}
