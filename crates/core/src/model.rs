//! The OLSQ2 flat (time-resolved) model — the paper's §III formulation.
//!
//! Variables (§III-A-1):
//! * mapping `π_q^t` — finite-domain over physical qubits, per program
//!   qubit and time step;
//! * time `t_g` — finite-domain over `0..T_UB`, per gate;
//! * SWAP `σ_e^t` — Boolean, true iff a SWAP on edge `e` *finishes* at `t`.
//!
//! There are **no space variables**: gate positions are implied by mapping
//! and time variables (Improvement 1). Constraints follow §II-A/§III-A-2:
//! injectivity, dependencies, two-qubit adjacency (Eq. 1), SWAP/gate
//! overlap (Eq. 2–3, in one of two equivalent forms, see
//! [`OverlapForm`]), SWAP/SWAP exclusion, and mapping transformation.
//! Objective bounds are attached through activation literals so the
//! optimization loops of §III-B stay incremental.

// Indexed `for` loops are deliberate here: time-step/edge index loops mirror the paper's formulation.
#![allow(clippy::needless_range_loop)]
use crate::config::{EncodingConfig, MappingEncoding, SynthesisConfig, TimeEncoding};
use crate::vars::{FdVar, TimeVars};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph, Operands};
use olsq2_encode::{
    at_most_one, gates, BatchSink, CardinalityNetwork, CnfSink, ConstraintFamily, FamilyTally,
};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::collections::HashMap;
use std::ops::Range;

/// Errors raised while constructing a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// More program qubits than physical qubits.
    TooManyQubits {
        /// Program qubit count.
        program: usize,
        /// Physical qubit count.
        physical: usize,
    },
    /// The circuit has no gates (nothing to synthesize).
    EmptyCircuit,
    /// The coupling graph cannot route the circuit (disconnected).
    DisconnectedDevice,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooManyQubits { program, physical } => write!(
                f,
                "circuit uses {program} program qubits but the device has only {physical}"
            ),
            ModelError::EmptyCircuit => write!(f, "circuit has no gates"),
            ModelError::DisconnectedDevice => {
                write!(
                    f,
                    "coupling graph is disconnected; routing may be impossible"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Which formulation to build: the paper's succinct OLSQ2 model or the
/// original OLSQ baseline with per-gate *space variables* (used for the
/// speedup comparisons of Fig. 1 and Tables I–II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelStyle {
    /// OLSQ2 (Improvement 1): no space variables; gate positions inferred
    /// from mapping and time variables.
    #[default]
    Olsq2,
    /// OLSQ (Tan & Cong, ICCAD'20): each gate carries a space variable
    /// `x_g` (over edges for two-qubit gates, over qubits for single-qubit
    /// gates) plus consistency constraints tying `x_g` to the mapping —
    /// the redundancy the paper eliminates.
    OlsqBaseline,
}

/// How an OLSQ2 model writes the SWAP/gate overlap constraints (Eq. 2–3).
///
/// Both forms admit the same layouts: resolving the window form's busy
/// literal away yields exactly the per-gate clauses. They differ in size
/// and in how the solver searches them, so each driver picks the form
/// that is faster for the objective it serves (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapForm {
    /// One clause `(t_g ≠ t′) ∨ (π_q^t ≠ p) ∨ ¬σ_e^t` per gate, window
    /// step, gate operand, edge and endpoint — OLSQ's form. Depth
    /// optimization and feasibility solves use it.
    PerGate,
    /// One busy literal `w_q^t` per program qubit `q` and SWAP finish
    /// step `t`, implied by every gate on `q` running in `(t − S_D, t]`:
    /// `(t_g ≠ t′) ∨ w_q^t`, and `¬w_q^t ∨ (π_q^t ≠ p) ∨ ¬σ_e^t` per edge
    /// and endpoint. SWAP-count optimization uses it.
    Window,
}

/// The built model plus handles for incremental bounding and extraction.
#[derive(Debug)]
pub struct FlatModel {
    solver: Solver,
    /// `mapping[q][t]`.
    mapping: Vec<Vec<FdVar>>,
    time: TimeVars,
    /// `swap_lits[e][t]`; entries below `S_D - 1` are frozen false.
    swap_lits: Vec<Vec<Lit>>,
    t_ub: usize,
    sd: usize,
    style: ModelStyle,
    overlap: OverlapForm,
    config: SynthesisConfig,
    depth_bounds: HashMap<usize, Lit>,
    swap_card: Option<CardinalityNetwork>,
    num_gates: usize,
    tally: FamilyTally,
    /// Current window-generation guard (incremental builds only): the
    /// active at-least-one/domain-bound constraints for the time variables
    /// are conditional on it, and every solve assumes it. Superseded
    /// guards are permanently falsified at the root by
    /// [`FlatModel::extend_window`].
    window_guard: Option<Lit>,
    /// Number of in-place window extensions performed.
    extensions: usize,
    /// Running hash of post-build lazy allocations (bound activation
    /// literals, cardinality machinery). Folded into the clause-sharing
    /// fingerprint after an extension: clause *counts* diverge across
    /// cohort members (each learns and simplifies differently), so the
    /// variable space is pinned by variable count + allocation history
    /// instead.
    alloc_history: u64,
    /// The clause-sharing fence that is (or would be) in force for this
    /// model: the exact `(fingerprint, num_vars)` pair last passed to
    /// [`olsq2_sat::ClauseExchange::bind_space`]. Tracked even without an
    /// exchange so a fork can be re-bound later — a fork's variable space
    /// is bit-identical to its base's, so the pair carries over verbatim.
    bound_fingerprint: u64,
    bound_vars: usize,
}

impl FlatModel {
    /// Builds the OLSQ2 model for `circuit` on `graph` with the given
    /// depth window `t_ub`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
    ) -> Result<FlatModel, ModelError> {
        Self::build_with_style(circuit, graph, config, t_ub, ModelStyle::Olsq2)
    }

    /// Builds either formulation (see [`ModelStyle`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build_with_style(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
        style: ModelStyle,
    ) -> Result<FlatModel, ModelError> {
        Self::encode(circuit, graph, config, t_ub, style, OverlapForm::PerGate)
    }

    /// Builds the OLSQ2 model with the given form of the overlap
    /// constraints (see [`OverlapForm`]). The form is kept by
    /// [`FlatModel::extend_window`] and [`FlatModel::fork`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build_with_overlap(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
        overlap: OverlapForm,
    ) -> Result<FlatModel, ModelError> {
        Self::encode(circuit, graph, config, t_ub, ModelStyle::Olsq2, overlap)
    }

    fn encode(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
        style: ModelStyle,
        overlap: OverlapForm,
    ) -> Result<FlatModel, ModelError> {
        let nq = circuit.num_qubits();
        let np = graph.num_qubits();
        if circuit.num_gates() == 0 {
            return Err(ModelError::EmptyCircuit);
        }
        if nq > np {
            return Err(ModelError::TooManyQubits {
                program: nq,
                physical: np,
            });
        }
        if !graph.is_connected() && nq > 1 {
            return Err(ModelError::DisconnectedDevice);
        }
        let sd = config.swap_duration.max(1);
        let t_ub = t_ub.max(1);
        let mut solver = Solver::new();
        if config.proof_log {
            // Before any clause: the log must contain every original.
            solver.enable_proof();
        }
        solver.set_features(config.solver_features);
        let enc = config.encoding;
        let mut tally = FamilyTally::new();
        let mut mark = tally.mark(&solver);

        // --- Mapping variables + injectivity -------------------------------
        let mut mapping: Vec<Vec<FdVar>> = (0..nq).map(|_| Vec::new()).collect();
        emit_mappings(&mut solver, &mut mapping, np, enc, 0..t_ub);

        // Initial-mapping one-hot groups are the natural cube-splitting
        // axis: asserting each selector of π_q^0 in turn partitions the
        // space exactly, and the unguarded at-least-one clause makes the
        // split certifiable in stitched proofs. (Binary mappings have no
        // such group; t > 0 columns are weaker split candidates and are
        // left out.)
        if matches!(
            enc.mapping,
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot
        ) {
            for q in 0..nq {
                tally.register_split_group(ConstraintFamily::Mapping, mapping[q][0].raw_lits());
            }
        }

        mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // --- Time variables + dependencies ---------------------------------
        let dag = if config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        };
        // Incremental builds guard the window-scoped domain constraints on
        // a generation literal so the window can later grow in place (see
        // [`FlatModel::extend_window`]); the guard is assumed on every
        // solve. Non-incremental builds emit them unconditionally.
        let window_guard = config
            .incremental
            .then(|| Lit::positive(CnfSink::new_var(&mut solver)));
        let mut time = TimeVars::new(
            &mut solver,
            circuit.num_gates(),
            t_ub,
            enc.time,
            enc.amo,
            window_guard,
        );
        for &(g, g2) in dag.dependencies() {
            time.assert_before(&mut solver, g, g2);
        }
        // Commutation relaxes *order*, not exclusivity: gates sharing a
        // program qubit must still occupy distinct time steps.
        if config.commutation_aware {
            let dep_set: std::collections::HashSet<(usize, usize)> =
                dag.dependencies().iter().copied().collect();
            let mut per_qubit: Vec<Vec<usize>> = vec![Vec::new(); nq];
            for (g, gate) in circuit.gates().iter().enumerate() {
                for q in gate.operands.qubits() {
                    per_qubit[q as usize].push(g);
                }
            }
            let mut seen_pairs = std::collections::HashSet::new();
            for gates_on_q in &per_qubit {
                for (i, &a) in gates_on_q.iter().enumerate() {
                    for &b in &gates_on_q[i + 1..] {
                        if dep_set.contains(&(a, b))
                            || dep_set.contains(&(b, a))
                            || !seen_pairs.insert((a, b))
                        {
                            continue;
                        }
                        time.assert_not_equal(&mut solver, a, b);
                    }
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        // --- SWAP variables -------------------------------------------------
        let ne = graph.num_edges();
        let mut swap_lits: Vec<Vec<Lit>> = (0..ne).map(|_| Vec::new()).collect();
        emit_swaps(&mut solver, &mut swap_lits, graph, sd, 0..t_ub);
        mark = tally.credit_since(ConstraintFamily::Swap, &solver, mark);

        match style {
            ModelStyle::Olsq2 => {
                emit_scheduling(
                    &mut solver,
                    &mut mapping,
                    &time,
                    &swap_lits,
                    circuit,
                    graph,
                    sd,
                    overlap,
                    0..t_ub,
                );
            }
            ModelStyle::OlsqBaseline => {
                let mut batch = BatchSink::new(&mut solver);
                // Original OLSQ: per-gate space variables with consistency
                // constraints, and overlap constraints expressed through
                // them (the redundancy Improvement 1 removes).
                let mut space: Vec<FdVar> = Vec::with_capacity(circuit.num_gates());
                for gate in circuit.gates() {
                    let domain = match gate.operands {
                        Operands::One(_) => np,
                        Operands::Two(..) => ne,
                    };
                    let var = match enc.mapping {
                        MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                            FdVar::new_onehot(&mut batch, domain, enc.amo)
                        }
                        MappingEncoding::Binary => FdVar::new_binary(&mut batch, domain),
                    };
                    space.push(var);
                }
                // Consistency between space, time, and mapping variables.
                for (g, gate) in circuit.gates().iter().enumerate() {
                    match gate.operands {
                        Operands::One(q) => {
                            // (t_g == t ∧ x_g == p) → π_q^t == p.
                            for t in 0..t_ub {
                                for p in 0..np {
                                    let head: Vec<Lit> = time
                                        .var(g)
                                        .neq_clause(t)
                                        .into_iter()
                                        .chain(space[g].neq_clause(p))
                                        .collect();
                                    for &bit in &mapping[q as usize][t].eq_conj(p) {
                                        let mut clause = head.clone();
                                        clause.push(bit);
                                        batch.add_clause(&clause);
                                    }
                                }
                            }
                        }
                        Operands::Two(q1, q2) => {
                            // (t_g == t ∧ x_g == e) → endpoints match in
                            // either orientation.
                            for t in 0..t_ub {
                                for e in 0..ne {
                                    let (pa, pb) = graph.edge(e);
                                    let mut orient = Vec::with_capacity(2);
                                    for (x, y) in [(pa, pb), (pb, pa)] {
                                        let la =
                                            mapping[q1 as usize][t].eq_lit(&mut batch, x as usize);
                                        let lb =
                                            mapping[q2 as usize][t].eq_lit(&mut batch, y as usize);
                                        orient.push(gates::and_lit(&mut batch, la, lb));
                                    }
                                    let both = gates::or_all(&mut batch, &orient);
                                    let mut clause: Vec<Lit> = time
                                        .var(g)
                                        .neq_clause(t)
                                        .into_iter()
                                        .chain(space[g].neq_clause(e))
                                        .collect();
                                    clause.push(both);
                                    batch.add_clause(&clause);
                                }
                            }
                        }
                    }
                }
                // Overlap via space variables (OLSQ Eq. 7–8 analogue).
                for (g, gate) in circuit.gates().iter().enumerate() {
                    for e in 0..ne {
                        let (pa, pb) = graph.edge(e);
                        for t in (sd - 1)..t_ub {
                            for t_prime in (t + 1 - sd)..=t {
                                match gate.operands {
                                    Operands::One(_) => {
                                        for p in [pa, pb] {
                                            let mut clause = time.var(g).neq_clause(t_prime);
                                            clause.extend(space[g].neq_clause(p as usize));
                                            clause.push(!swap_lits[e][t]);
                                            batch.add_clause(&clause);
                                        }
                                    }
                                    Operands::Two(..) => {
                                        // Any edge sharing a qubit with e
                                        // (including e itself).
                                        for e2 in 0..ne {
                                            let (qa, qb) = graph.edge(e2);
                                            let shares = e2 == e
                                                || qa == pa
                                                || qa == pb
                                                || qb == pa
                                                || qb == pb;
                                            if !shares {
                                                continue;
                                            }
                                            let mut clause = time.var(g).neq_clause(t_prime);
                                            clause.extend(space[g].neq_clause(e2));
                                            clause.push(!swap_lits[e][t]);
                                            batch.add_clause(&clause);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Scheduling, &solver, mark);

        // --- SWAP transformation (mapping consistency) ----------------------
        emit_transformation(&mut solver, &mapping, &swap_lits, graph, 0..t_ub - 1);
        tally.credit_since(ConstraintFamily::Transition, &solver, mark);

        // Structure-aware seeding: in an exactly-one group all but one
        // selector end up false, and optimal layouts use few SWAPs, so
        // the all-false polarity starts the search inside the layout
        // structure instead of fighting the at-most-one constraints. The
        // t = 0 activity bump nudges the first decisions toward the
        // initial placement — the same groups the cube splitter branches
        // on. It must stay a *nudge*: at full VSIDS weight (1.0) it
        // fixates routing-heavy searches on placement long after the
        // conflict analysis has better candidates (qaoa-8: 3.3× slower,
        // tof-3: 1.3× slower), while 0.25 keeps the placement-first
        // ordering on instances it helps (qaoa-10, qft-4/5) without the
        // fixation.
        if config.solver_features.structure_seeding {
            if matches!(
                enc.mapping,
                MappingEncoding::OneHot | MappingEncoding::InverseOneHot
            ) {
                for per_t in &mapping {
                    for fd in per_t {
                        for l in fd.raw_lits() {
                            solver.set_saved_phase(l.var(), false);
                        }
                    }
                    for l in per_t[0].raw_lits() {
                        solver.boost_activity(l.var(), 0.25);
                    }
                }
            }
            if enc.time == TimeEncoding::OneHot {
                for g in 0..circuit.num_gates() {
                    for l in time.var(g).raw_lits() {
                        solver.set_saved_phase(l.var(), false);
                    }
                }
            }
            for per_t in &swap_lits {
                for &sl in per_t {
                    solver.set_saved_phase(sl.var(), false);
                }
            }
        }

        // Domain-informed branching order (§V): decide the initial
        // placement first, then gate times; SWAPs follow by propagation.
        if config.seed_variable_order {
            for per_t in &mapping {
                for l in per_t[0].raw_lits() {
                    solver.boost_activity(l.var(), 2.0);
                }
            }
            for g in 0..circuit.num_gates() {
                for l in time.var(g).raw_lits() {
                    solver.boost_activity(l.var(), 1.0);
                }
            }
        }

        config.diversification.apply(&mut solver);
        // Everything past the build is bound-machinery: activation
        // literals, cardinality counters, window-growth variables. Clauses
        // over them encode cross-solve (and, under sharing, cross-member)
        // contracts, so inprocessing must leave them exactly as written.
        solver.set_inprocess_floor(solver.num_vars());
        // Computed whether or not an exchange is present: forks re-bind
        // from this stored pair.
        let bound_fingerprint = Self::space_fingerprint(style, t_ub, sd, &enc, &solver);
        let bound_vars = solver.num_vars();
        if let Some(exchange) = &config.clause_exchange {
            // Fence clauses to this exact formula build: identical
            // (style, window, encoding, size) builds — and only those —
            // share a fingerprint, so cohort members exchange clauses
            // while their variable spaces provably coincide. Variables
            // allocated after this point (activation literals, bound
            // machinery) are member-local and excluded via the
            // build-time variable count.
            exchange.bind_space(bound_fingerprint, bound_vars);
            solver.set_exchange_filter(config.exchange_filter);
            solver.set_exchange(Some(exchange.clone()));
        }

        Ok(FlatModel {
            solver,
            mapping,
            time,
            swap_lits,
            t_ub,
            sd,
            style,
            overlap,
            config: config.clone(),
            depth_bounds: HashMap::new(),
            swap_card: None,
            num_gates: circuit.num_gates(),
            tally,
            window_guard,
            extensions: 0,
            alloc_history: 0,
            bound_fingerprint,
            bound_vars,
        })
    }

    /// Forks this model into a new cohort member without re-encoding: the
    /// underlying solver state is snapshotted via [`Solver::fork`]
    /// (O(memcpy) — clause arena, watch lists, root trail, phases,
    /// activities, proof prefix), the encoding handles (variable maps,
    /// bound activators, cardinality network, window guard) are cloned,
    /// and only the per-member knobs from `config` are re-applied:
    /// diversification, the clause exchange (re-bound with this model's
    /// stored fence, since the fork's variable space is bit-identical),
    /// and the exchange filter.
    ///
    /// The `(fingerprint, num_vars)` fence pair — including the
    /// allocation-history chain accumulated by bound requests and
    /// [`FlatModel::extend_window`] — carries over verbatim, so a forked
    /// member keeps sharing (and keeps *extending*) exactly as a freshly
    /// encoded member with the same history would.
    ///
    /// `config` must agree with the base model on everything that shapes
    /// the formula (encoding, swap duration, style, proof logging);
    /// callers that cannot guarantee that should fall back to a fresh
    /// build. Diversification is free to differ — it changes no clauses.
    pub fn fork(&mut self, config: &SynthesisConfig) -> FlatModel {
        debug_assert_eq!(config.encoding, self.config.encoding);
        debug_assert_eq!(
            config.swap_duration.max(1),
            self.sd,
            "fork must keep the base swap duration"
        );
        debug_assert_eq!(
            config.proof_log, self.config.proof_log,
            "proof logging is decided at encode time"
        );
        let mut solver = self.solver.fork();
        config.diversification.apply(&mut solver);
        if let Some(exchange) = &config.clause_exchange {
            exchange.bind_space(self.bound_fingerprint, self.bound_vars);
            solver.set_exchange_filter(config.exchange_filter);
            solver.set_exchange(Some(exchange.clone()));
        }
        FlatModel {
            solver,
            mapping: self.mapping.clone(),
            time: self.time.clone(),
            swap_lits: self.swap_lits.clone(),
            t_ub: self.t_ub,
            sd: self.sd,
            style: self.style,
            overlap: self.overlap,
            config: config.clone(),
            depth_bounds: self.depth_bounds.clone(),
            swap_card: self.swap_card.clone(),
            num_gates: self.num_gates,
            tally: self.tally.clone(),
            window_guard: self.window_guard,
            extensions: self.extensions,
            alloc_history: self.alloc_history,
            bound_fingerprint: self.bound_fingerprint,
            bound_vars: self.bound_vars,
        }
    }

    /// Grows the depth window to `new_t_ub` **in place**: appends the new
    /// time steps' variables and constraint families onto the live solver,
    /// keeping every learned clause, VSIDS activity, and saved phase. The
    /// encoding is time-resolved, so all clauses over steps `0..old_t_ub`
    /// remain valid verbatim; only the window-scoped domain constraints
    /// move to a new guard generation, and the superseded guard is
    /// permanently falsified at the root (which [`Solver::simplify`] then
    /// exploits to physically retire the dead constraints).
    ///
    /// Returns `false` without extending when the model cannot extend —
    /// built non-incrementally, the baseline style, or a binary time
    /// encoding that would need a wider bit-vector. The caller falls back
    /// to a rebuild then.
    ///
    /// `circuit` and `graph` must be the ones the model was built from.
    ///
    /// # Panics
    ///
    /// Panics if `new_t_ub` is below the current window.
    pub fn extend_window(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        new_t_ub: usize,
    ) -> bool {
        let Some(old_guard) = self.window_guard else {
            return false;
        };
        if self.style != ModelStyle::Olsq2 {
            return false;
        }
        let new_t_ub = new_t_ub.max(1);
        assert!(new_t_ub >= self.t_ub, "windows only grow");
        if new_t_ub == self.t_ub {
            return true;
        }
        let old_t_ub = self.t_ub;
        let np = graph.num_qubits();
        let ne = graph.num_edges();
        let sd = self.sd;
        let enc = self.config.encoding;

        // --- Time variables: new guard generation + dependency re-emit ----
        let mut mark = self.tally.mark(&self.solver);
        let new_guard = Lit::positive(CnfSink::new_var(&mut self.solver));
        if !self.time.extend(&mut self.solver, new_t_ub, new_guard) {
            return false; // binary width grew: caller rebuilds
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Dependency, &self.solver, mark);

        // --- Mapping variables + injectivity for the new steps ------------
        let new_steps = old_t_ub..new_t_ub;
        emit_mappings(
            &mut self.solver,
            &mut self.mapping,
            np,
            enc,
            new_steps.clone(),
        );
        mark = self
            .tally
            .credit_since(ConstraintFamily::Mapping, &self.solver, mark);

        // --- SWAP variables for the new steps + exclusions ----------------
        emit_swaps(
            &mut self.solver,
            &mut self.swap_lits,
            graph,
            sd,
            new_steps.clone(),
        );
        mark = self
            .tally
            .credit_since(ConstraintFamily::Swap, &self.solver, mark);

        // --- Scheduling validity for the new steps (Eq. 1–3) --------------
        emit_scheduling(
            &mut self.solver,
            &mut self.mapping,
            &self.time,
            &self.swap_lits,
            circuit,
            graph,
            sd,
            self.overlap,
            new_steps,
        );
        mark = self
            .tally
            .credit_since(ConstraintFamily::Scheduling, &self.solver, mark);

        // --- Mapping transformation across the seam and new steps ---------
        emit_transformation(
            &mut self.solver,
            &self.mapping,
            &self.swap_lits,
            graph,
            old_t_ub - 1..new_t_ub - 1,
        );
        mark = self
            .tally
            .credit_since(ConstraintFamily::Transition, &self.solver, mark);

        // --- Patch cached bound activations over the new steps ------------
        // A one-hot depth bound issued before the extension knows nothing
        // about the new time selectors or swap literals; forbid them under
        // the same activator. (Binary comparators cover the full bit width
        // and need no patch.) Sorted for deterministic clause order.
        let mut depth_acts: Vec<(usize, Lit)> =
            self.depth_bounds.iter().map(|(&d, &a)| (d, a)).collect();
        depth_acts.sort_unstable_by_key(|&(d, _)| d);
        for &(_, act) in &depth_acts {
            if enc.time == crate::config::TimeEncoding::OneHot {
                for g in 0..self.num_gates {
                    self.time.var_mut(g).forbid_range_if(
                        &mut self.solver,
                        old_t_ub..new_t_ub,
                        Some(act),
                    );
                }
            }
            for e in 0..ne {
                for t in old_t_ub..new_t_ub {
                    let l = self.swap_lits[e][t];
                    self.solver.add_clause([!act, !l]);
                }
            }
        }
        if let Some(card) = &mut self.swap_card {
            let new_inputs: Vec<Lit> = (0..ne)
                .flat_map(|e| self.swap_lits[e][old_t_ub..].iter().copied())
                .collect();
            let invalidated = card.extend(&mut self.solver, &new_inputs);
            // Invalidated bound activators (adder-network rebuilds) are
            // permanently retired; callers re-request their bounds.
            for l in invalidated {
                self.solver.add_clause([!l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);

        // --- Generation flip: retire the superseded window guard ----------
        self.solver.add_clause([!old_guard]);
        self.solver.simplify();
        self.window_guard = Some(new_guard);
        self.t_ub = new_t_ub;
        self.extensions += 1;
        self.note_alloc(3, new_t_ub);
        self.rebind_exchange();
        true
    }

    /// Folds a post-build lazy allocation event into the running history
    /// hash (see the `alloc_history` field).
    fn note_alloc(&mut self, tag: u64, key: usize) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.alloc_history.hash(&mut h);
        tag.hash(&mut h);
        key.hash(&mut h);
        self.alloc_history = h.finish();
    }

    /// Re-binds the clause-sharing fence after an extension: cohort members
    /// that performed the identical build + bound-request + extension
    /// sequence provably share a variable numbering, so sharing stays live
    /// across grown windows. Clause counts are deliberately excluded — they
    /// diverge per member (different learned units, different
    /// simplifications) without affecting variable meanings.
    fn rebind_exchange(&mut self) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "olsq2.flat.extended".hash(&mut h);
        self.style.hash(&mut h);
        self.t_ub.hash(&mut h);
        self.sd.hash(&mut h);
        self.config.encoding.hash(&mut h);
        self.extensions.hash(&mut h);
        self.solver.num_vars().hash(&mut h);
        self.alloc_history.hash(&mut h);
        // Stored unconditionally so later forks inherit the exact fence.
        self.bound_fingerprint = h.finish() | 1;
        self.bound_vars = self.solver.num_vars();
        if let Some(exchange) = &self.config.clause_exchange {
            exchange.bind_space(self.bound_fingerprint, self.bound_vars);
        }
    }

    /// Hash identifying one formula build for the clause-sharing fence.
    /// Model construction is deterministic, so equal inputs yield equal
    /// variable numberings; the formula size is folded in as a guard
    /// against accidental collisions across circuits/devices.
    fn space_fingerprint(
        style: ModelStyle,
        t_ub: usize,
        sd: usize,
        enc: &crate::EncodingConfig,
        solver: &Solver,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "olsq2.flat".hash(&mut h);
        style.hash(&mut h);
        t_ub.hash(&mut h);
        sd.hash(&mut h);
        enc.hash(&mut h);
        solver.num_vars().hash(&mut h);
        solver.num_clauses().hash(&mut h);
        // 0 means "unbound" to the endpoint; steer clear of it.
        h.finish() | 1
    }

    /// The depth window `T_UB` the model was built for.
    pub fn t_ub(&self) -> usize {
        self.t_ub
    }

    /// The form of the overlap constraints (Eq. 2–3) this model carries.
    pub fn overlap(&self) -> OverlapForm {
        self.overlap
    }

    /// Formula-size statistics `(variables, clauses)` of the built model.
    pub fn formula_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Per-constraint-family formula-size breakdown. Bound machinery added
    /// after the build ([`FlatModel::depth_bound`], [`FlatModel::swap_bound`])
    /// is credited to [`ConstraintFamily::Cardinality`].
    pub fn breakdown(&self) -> &FamilyTally {
        &self.tally
    }

    /// Mutable access to the underlying solver (budgets, statistics).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// The active window guard, when the model was built incrementally.
    /// Callers that bypass [`FlatModel::solve`] (the cube engine solves
    /// through the raw solver) must assume it themselves.
    pub fn window_guard(&self) -> Option<Lit> {
        self.window_guard
    }

    /// Activation literal enforcing depth ≤ `depth` (all `t_g ≤ depth-1`,
    /// Eq. 4, and no SWAP finishing at or after `depth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds `T_UB`.
    pub fn depth_bound(&mut self, depth: usize) -> Lit {
        assert!(
            depth >= 1 && depth <= self.t_ub,
            "depth bound out of window"
        );
        if let Some(&l) = self.depth_bounds.get(&depth) {
            return l;
        }
        let mark = self.tally.mark(&self.solver);
        let act = Lit::positive(CnfSink::new_var(&mut self.solver));
        for g in 0..self.num_gates {
            self.time
                .var_mut(g)
                .assert_le_if(&mut self.solver, depth - 1, Some(act));
        }
        for e in 0..self.swap_lits.len() {
            for t in depth..self.t_ub {
                let l = self.swap_lits[e][t];
                self.solver.add_clause([!act, !l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        self.depth_bounds.insert(depth, act);
        self.note_alloc(1, depth);
        act
    }

    /// Activation literal enforcing `Σ σ ≤ k` (Eq. 5). The cardinality
    /// network is built lazily on first use with capacity `max_bound`
    /// (later calls may use any `k ≤ max_bound` of the *first* call).
    pub fn swap_bound(&mut self, k: usize, max_bound: usize) -> Lit {
        let mark = self.tally.mark(&self.solver);
        let vars_before = self.solver.num_vars();
        if self.swap_card.is_none() {
            let inputs: Vec<Lit> = self
                .swap_lits
                .iter()
                .flat_map(|row| row.iter().copied())
                .collect();
            self.swap_card = Some(CardinalityNetwork::new(
                &mut self.solver,
                &inputs,
                max_bound,
                self.config.encoding.cardinality,
            ));
        }
        let act = self
            .swap_card
            .as_mut()
            .expect("just built")
            .at_most(&mut self.solver, k);
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        // Only *allocating* requests enter the fence history: a cached
        // bound changes no variable numbering, so cohort members probing
        // different (pre-armed) bounds still agree on the post-extension
        // sharing fingerprint.
        if self.solver.num_vars() != vars_before {
            self.note_alloc(2, k.wrapping_mul(65_537).wrapping_add(max_bound));
        }
        act
    }

    /// Pre-materializes depth-bound activators for every depth in
    /// `lo..=hi`, lowest first. Used by the bound-race scheduler to arm a
    /// whole bracket on the template model *before* forking worker
    /// snapshots: every fork then resolves any bound in the bracket from
    /// its cloned cache without allocating variables, so the forks'
    /// clause-sharing fences stay aligned for the entire race.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FlatModel::depth_bound`] for each bound.
    pub fn depth_bracket(&mut self, lo: usize, hi: usize) -> Vec<Lit> {
        assert!(lo <= hi, "bracket must be ordered: lo <= hi");
        (lo..=hi).map(|d| self.depth_bound(d)).collect()
    }

    /// Pre-materializes SWAP-bound activators for every count in
    /// `lo..=hi` (capacity semantics as in [`FlatModel::swap_bound`]),
    /// lowest first. Same fence-alignment purpose as
    /// [`FlatModel::depth_bracket`].
    pub fn swap_bracket(&mut self, lo: usize, hi: usize, max_bound: usize) -> Vec<Lit> {
        assert!(lo <= hi, "bracket must be ordered: lo <= hi");
        (lo..=hi).map(|k| self.swap_bound(k, max_bound)).collect()
    }

    /// Number of in-place window extensions performed on this model.
    pub fn extensions(&self) -> usize {
        self.extensions
    }

    /// Solves under the given assumptions (plus the active window guard on
    /// incremental builds — without it the guarded at-least-one constraints
    /// would let every time variable go unassigned).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = match self.window_guard {
            None => self.solver.solve(assumptions),
            Some(g) => {
                let mut with_guard = Vec::with_capacity(assumptions.len() + 1);
                with_guard.extend_from_slice(assumptions);
                with_guard.push(g);
                self.solver.solve(&with_guard)
            }
        };
        // Each satisfiable bound is the new incumbent layout; steer the
        // next (tighter) solve toward it via target phases.
        if result == SolveResult::Sat && self.solver.features().target_phase {
            self.solver.adopt_model_targets();
        }
        result
    }

    /// Extracts the layout result from the solver's current model.
    ///
    /// # Panics
    ///
    /// Panics if the last `solve` was not SAT.
    pub fn extract(&self) -> LayoutResult {
        let initial_mapping: Vec<u16> = self
            .mapping
            .iter()
            .map(|per_t| per_t[0].value_in(&self.solver) as u16)
            .collect();
        let schedule: Vec<usize> = (0..self.num_gates)
            .map(|g| self.time.value_in(&self.solver, g))
            .collect();
        let mut swaps = Vec::new();
        for (e, row) in self.swap_lits.iter().enumerate() {
            for (t, &l) in row.iter().enumerate() {
                if self.solver.model_value(l) == Some(true) {
                    swaps.push(SwapOp {
                        edge: e,
                        finish_time: t,
                    });
                }
            }
        }
        let depth = schedule
            .iter()
            .copied()
            .chain(swaps.iter().map(|s| s.finish_time))
            .max()
            .unwrap_or(0)
            + 1;
        LayoutResult {
            initial_mapping,
            schedule,
            swaps,
            depth,
            swap_duration: self.sd,
        }
    }
}

/// A shareable encoded-model template for O(memcpy) cohort spawning.
///
/// Wraps one built [`FlatModel`] behind a mutex so several spawners
/// (portfolio members, cube workers, service resumes) can fork members
/// from a single encode. The seed remembers the exact instance it
/// encodes — a structural fingerprint of the circuit, the device, and
/// every formula-shaping config field — and [`ModelSeed::fork_for`]
/// refuses to fork for anything else, so a stale or mismatched seed
/// degrades to a fresh build instead of an unsound fork.
#[derive(Debug, Clone)]
pub struct ModelSeed {
    inner: std::sync::Arc<std::sync::Mutex<FlatModel>>,
    instance: u64,
}

impl ModelSeed {
    /// Wraps a built model as a seed for the given instance fingerprint
    /// (from [`ModelSeed::instance_fingerprint`] on the same inputs).
    pub fn capture(model: FlatModel, instance: u64) -> ModelSeed {
        ModelSeed {
            inner: std::sync::Arc::new(std::sync::Mutex::new(model)),
            instance,
        }
    }

    /// The instance fingerprint this seed was captured for.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Structural fingerprint of one synthesis instance: the exact gate
    /// list (kinds, parameters, operands — **not** relabeling-invariant:
    /// a fork replays the base's variable numbering, so only the
    /// bit-identical instance may consume it), the device edge list, and
    /// every config field that shapes the formula or the solver's
    /// pre-search state. Diversification and run-scoped handles
    /// (budgets, exchange, telemetry) are deliberately excluded — they
    /// are re-applied per fork.
    pub fn instance_fingerprint(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "olsq2.instance".hash(&mut h);
        circuit.num_qubits().hash(&mut h);
        for gate in circuit.gates() {
            gate.kind.name().hash(&mut h);
            for p in gate.kind.params() {
                p.to_bits().hash(&mut h);
            }
            match gate.operands {
                Operands::One(q) => (1u8, q, 0u16).hash(&mut h),
                Operands::Two(a, b) => (2u8, a, b).hash(&mut h),
            }
        }
        graph.num_qubits().hash(&mut h);
        for &(a, b) in graph.edges() {
            (a, b).hash(&mut h);
        }
        config.encoding.hash(&mut h);
        config.swap_duration.hash(&mut h);
        config.commutation_aware.hash(&mut h);
        config.seed_variable_order.hash(&mut h);
        config.incremental.hash(&mut h);
        config.proof_log.hash(&mut h);
        // SolverFeatures carries no Hash impl; its Debug form is a
        // faithful field dump and the fingerprint never leaves the
        // process, so hashing it is stable where it needs to be.
        format!("{:?}", config.solver_features).hash(&mut h);
        h.finish()
    }

    /// Forks a member model for `config` at depth window `t_ub` with the
    /// overlap form `overlap`, or `None` when the seed cannot serve it
    /// (different instance, the other [`OverlapForm`], or a window
    /// growth the incremental machinery cannot perform) — the caller
    /// then falls back to a fresh encode.
    ///
    /// A smaller window is served at the template's own window: a wider
    /// window only admits more schedules, every probe bounds the depth
    /// by an activation literal, and callers read the window back from
    /// [`FlatModel::t_ub`]. This is what lets a run resume from the
    /// snapshot of a run whose window grew. A larger window is served by
    /// forking and growing the *fork* via [`FlatModel::extend_window`],
    /// which re-arms the allocation-history fingerprint chain on the
    /// member, exactly as a freshly encoded member would have.
    pub fn fork_for(
        &self,
        config: &SynthesisConfig,
        circuit: &Circuit,
        graph: &CouplingGraph,
        instance: u64,
        t_ub: usize,
        overlap: OverlapForm,
    ) -> Option<FlatModel> {
        if instance != self.instance {
            return None;
        }
        let mut base = self.inner.lock().ok()?;
        if base.overlap() != overlap {
            return None;
        }
        let base_t_ub = base.t_ub();
        if t_ub <= base_t_ub {
            return Some(base.fork(config));
        }
        if t_ub > base_t_ub && config.incremental {
            let mut fork = base.fork(config);
            drop(base);
            if fork.extend_window(circuit, graph, t_ub) {
                return Some(fork);
            }
        }
        None
    }
}

/// A handle a preemptible run publishes its encoded state into when the
/// budget expires mid-descent (see `snapshot_slot` on
/// [`SynthesisConfig`]): the service's snapshot-on-preempt hook reads it
/// back and reattaches it as the `model_seed` of the resume run, which
/// then forks instead of re-encoding.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSlot {
    inner: std::sync::Arc<std::sync::Mutex<Option<ModelSeed>>>,
}

impl SnapshotSlot {
    /// Creates an empty slot.
    pub fn new() -> SnapshotSlot {
        SnapshotSlot::default()
    }

    /// Publishes a snapshot (replacing any previous one).
    pub fn publish(&self, seed: ModelSeed) {
        *self.inner.lock().expect("snapshot lock") = Some(seed);
    }

    /// A handle to the current snapshot, if one was published.
    pub fn peek(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").clone()
    }

    /// Removes and returns the current snapshot.
    pub fn take(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").take()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("snapshot lock").is_none()
    }
}

/// Appends one mapping variable per program qubit for each step in
/// `steps`, with the per-step injectivity constraint.
fn emit_mappings(
    solver: &mut Solver,
    mapping: &mut [Vec<FdVar>],
    np: usize,
    enc: EncodingConfig,
    steps: Range<usize>,
) {
    let nq = mapping.len();
    for per_t in mapping.iter_mut() {
        for _ in steps.clone() {
            per_t.push(match enc.mapping {
                MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                    FdVar::new_onehot(solver, np, enc.amo)
                }
                MappingEncoding::Binary => FdVar::new_binary(solver, np),
            });
        }
    }
    // Injectivity is pure clause emission: stage it through a BatchSink
    // so the clauses land via one bulk hand-off per buffer instead of a
    // solver call each.
    let mut batch = BatchSink::new(solver);
    match enc.mapping {
        MappingEncoding::OneHot => {
            // Pairwise per (t, p): the "int"-style injectivity.
            for t in steps {
                for p in 0..np {
                    let sels: Vec<Lit> = (0..nq)
                        .map(|q| mapping[q][t].eq_lit(&mut batch, p))
                        .collect();
                    at_most_one(&mut batch, &sels, enc.amo);
                }
            }
        }
        MappingEncoding::Binary => {
            // Pairwise difference per (t, q<q'): at least one bit of the
            // two bit-vectors differs.
            for t in steps {
                for q1 in 0..nq {
                    for q2 in (q1 + 1)..nq {
                        let diff = fd_differs(&mut batch, &mapping[q1][t], &mapping[q2][t]);
                        batch.add_clause(&[diff]);
                    }
                }
            }
        }
        MappingEncoding::InverseOneHot => {
            // EUF-style: an inverse family π_inv(p, t) over Q ∪ {free}
            // with channeling; injectivity follows from π_inv being a
            // function (its exactly-one constraint).
            for t in steps {
                let mut inv: Vec<FdVar> = (0..np)
                    .map(|_| FdVar::new_onehot(&mut batch, nq + 1, enc.amo))
                    .collect();
                for q in 0..nq {
                    for p in 0..np {
                        let m = mapping[q][t].eq_lit(&mut batch, p);
                        let i = inv[p].eq_lit(&mut batch, q);
                        batch.add_clause(&[!m, i]);
                        batch.add_clause(&[!i, m]);
                    }
                }
            }
        }
    }
}

/// Appends the SWAP variables finishing at `steps` and their
/// exclusions: a SWAP cannot finish before `S_D - 1`, and SWAPs on edges
/// sharing a qubit must not overlap. Pairs whose finish times both lie
/// before `steps` were emitted with the earlier steps.
fn emit_swaps(
    solver: &mut Solver,
    swap_lits: &mut [Vec<Lit>],
    graph: &CouplingGraph,
    sd: usize,
    steps: Range<usize>,
) {
    let (old, new) = (steps.start, steps.end);
    for row in swap_lits.iter_mut() {
        for _ in steps.clone() {
            row.push(Lit::positive(CnfSink::new_var(solver)));
        }
    }
    for row in swap_lits.iter() {
        for &l in &row[old..(sd - 1).clamp(old, new)] {
            solver.add_clause([!l]);
        }
    }
    let ne = graph.num_edges();
    for e1 in 0..ne {
        let (a1, b1) = graph.edge(e1);
        for e2 in e1..ne {
            let (a2, b2) = graph.edge(e2);
            let shares = e1 == e2 || a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
            if !shares {
                continue;
            }
            for t1 in (sd - 1)..new {
                let upper = (t1 + sd).min(new);
                // Windows (t-S_D, t] intersect iff |t1 - t2| < S_D; for
                // the same edge only emit each unordered pair once.
                let lower = if e1 == e2 {
                    t1 + 1
                } else {
                    (t1 + 1).saturating_sub(sd).max(sd - 1)
                };
                for t2 in lower..upper {
                    if (e1 == e2 && t1 == t2) || (t1 < old && t2 < old) {
                        continue;
                    }
                    solver.add_clause([!swap_lits[e1][t1], !swap_lits[e2][t2]]);
                }
            }
        }
    }
}

/// Valid scheduling at the steps `steps` (Eq. 1–3), staged in bulk
/// since these families dominate the formula.
#[allow(clippy::too_many_arguments)]
fn emit_scheduling(
    solver: &mut Solver,
    mapping: &mut [Vec<FdVar>],
    time: &TimeVars,
    swap_lits: &[Vec<Lit>],
    circuit: &Circuit,
    graph: &CouplingGraph,
    sd: usize,
    overlap: OverlapForm,
    steps: Range<usize>,
) {
    let ne = graph.num_edges();
    let mut batch = BatchSink::new(solver);
    // Eq. 1: cache the adjacency disjunction per (qubit pair, t).
    let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
    for (g, gate) in circuit.gates().iter().enumerate() {
        if let Operands::Two(q1, q2) = gate.operands {
            let (qa, qb) = (q1.min(q2), q1.max(q2));
            for t in steps.clone() {
                let adj = match adj_cache.get(&(qa, qb, t)) {
                    Some(&l) => l,
                    None => {
                        let mut pair_lits = Vec::with_capacity(2 * ne);
                        for e in 0..ne {
                            let (pa, pb) = graph.edge(e);
                            for (x, y) in [(pa, pb), (pb, pa)] {
                                let la = mapping[qa as usize][t].eq_lit(&mut batch, x as usize);
                                let lb = mapping[qb as usize][t].eq_lit(&mut batch, y as usize);
                                pair_lits.push(gates::and_lit(&mut batch, la, lb));
                            }
                        }
                        let l = gates::or_all(&mut batch, &pair_lits);
                        adj_cache.insert((qa, qb, t), l);
                        l
                    }
                };
                // (t_g == t) → adjacent(qa, qb, t)
                let mut clause = time.var(g).neq_clause(t);
                clause.push(adj);
                batch.add_clause(&clause);
            }
        }
    }
    // Eq. 2–3: a SWAP finishing at t occupies its endpoints during the
    // window (t - S_D, t]; no gate touching those physical qubits may be
    // scheduled in that window. Only finish times in `steps` are new: a
    // finish time before them pairs only with gate times before them.
    let finishes = (sd - 1).max(steps.start)..steps.end;
    match overlap {
        OverlapForm::PerGate => {
            for (g, gate) in circuit.gates().iter().enumerate() {
                let qubits: Vec<u16> = gate.operands.qubits().collect();
                for e in 0..ne {
                    let (pa, pb) = graph.edge(e);
                    for t in finishes.clone() {
                        for t_prime in (t + 1 - sd)..=t {
                            for &q in &qubits {
                                for p in [pa, pb] {
                                    // (t_g == t') ∧ (π_q^t == p) → ¬σ_e^t
                                    let mut clause = time.var(g).neq_clause(t_prime);
                                    clause.extend(mapping[q as usize][t].neq_clause(p as usize));
                                    clause.push(!swap_lits[e][t]);
                                    batch.add_clause(&clause);
                                }
                            }
                        }
                    }
                }
            }
        }
        OverlapForm::Window => {
            let mut gates_on: Vec<Vec<usize>> = vec![Vec::new(); mapping.len()];
            for (g, gate) in circuit.gates().iter().enumerate() {
                for q in gate.operands.qubits() {
                    gates_on[q as usize].push(g);
                }
            }
            // Step-major, like every other per-step family: numbering
            // the busy literals qubit-major instead cost `optimize_swaps`
            // on tof-3/line5 (S_D = 3) 1.6x the conflicts.
            for t in finishes {
                for (q, gs) in gates_on.iter().enumerate() {
                    // A qubit no gate touches never blocks a SWAP.
                    if gs.is_empty() {
                        continue;
                    }
                    // w_q^t: q runs a gate in (t - S_D, t]. Only the
                    // implication into w is needed; the window may reach
                    // time selectors below `steps`.
                    let busy = Lit::positive(batch.new_var());
                    for &g in gs {
                        for t_prime in (t + 1 - sd)..=t {
                            // (t_g == t') → w_q^t
                            let mut clause = time.var(g).neq_clause(t_prime);
                            clause.push(busy);
                            batch.add_clause(&clause);
                        }
                    }
                    for e in 0..ne {
                        let (pa, pb) = graph.edge(e);
                        for p in [pa, pb] {
                            // w_q^t ∧ (π_q^t == p) → ¬σ_e^t
                            let mut clause = vec![!busy];
                            clause.extend(mapping[q][t].neq_clause(p as usize));
                            clause.push(!swap_lits[e][t]);
                            batch.add_clause(&clause);
                        }
                    }
                }
            }
        }
    }
}

/// Mapping transformation from each step in `transitions` to the next.
fn emit_transformation(
    solver: &mut Solver,
    mapping: &[Vec<FdVar>],
    swap_lits: &[Vec<Lit>],
    graph: &CouplingGraph,
    transitions: Range<usize>,
) {
    let mut batch = BatchSink::new(solver);
    for t in transitions {
        for per_t in mapping {
            // Stay: (π_q^t == p) ∧ no swap at an edge of p finishing at t
            //       → π_q^{t+1} == p.
            for p in 0..graph.num_qubits() {
                let incident = graph.edges_at(p as u16);
                let antecedent = per_t[t].neq_clause(p);
                for &bit in &per_t[t + 1].eq_conj(p) {
                    let mut clause = antecedent.clone();
                    clause.extend(incident.iter().map(|&e| swap_lits[e][t]));
                    clause.push(bit);
                    batch.add_clause(&clause);
                }
            }
            // Move: σ_e^t ∧ (π_q^t == e.p) → π_q^{t+1} == e.p'.
            for (e, row) in swap_lits.iter().enumerate() {
                let (pa, pb) = graph.edge(e);
                for (from, to) in [(pa, pb), (pb, pa)] {
                    let antecedent = per_t[t].neq_clause(from as usize);
                    for &bit in &per_t[t + 1].eq_conj(to as usize) {
                        let mut clause = Vec::with_capacity(antecedent.len() + 2);
                        clause.push(!row[t]);
                        clause.extend(antecedent.iter().copied());
                        clause.push(bit);
                        batch.add_clause(&clause);
                    }
                }
            }
        }
    }
}

/// A literal true iff two finite-domain variables differ (bit-level XOR
/// over the raw representation literals).
fn fd_differs<S: CnfSink>(sink: &mut S, a: &FdVar, b: &FdVar) -> Lit {
    let bits_a = a.raw_lits();
    let bits_b = b.raw_lits();
    debug_assert_eq!(bits_a.len(), bits_b.len());
    let diffs: Vec<Lit> = bits_a
        .iter()
        .zip(bits_b.iter())
        .map(|(&x, &y)| gates::xor_lit(sink, x, y))
        .collect();
    gates::or_all(sink, &diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingConfig;
    use olsq2_arch::line;
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;

    fn cx_pair_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c
    }

    #[test]
    fn trivial_instance_solves_and_verifies() {
        let circuit = cx_pair_circuit();
        let graph = line(2);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 2).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn distant_qubits_force_a_swap() {
        // cx(q0,q1) twice on a 3-line: only 2 program qubits, 3 physical.
        // With depth window 1 and swap window too small it is UNSAT; with a
        // wide window it is SAT.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        // A triangle on a line needs at least one swap.
        assert!(!result.swaps.is_empty());
    }

    #[test]
    fn depth_bounds_are_monotone() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 4).expect("builds");
        let b2 = model.depth_bound(2);
        let b4 = model.depth_bound(4);
        assert_eq!(model.solve(&[b2]), SolveResult::Sat);
        let r = model.extract();
        assert!(r.depth <= 2);
        assert_eq!(model.solve(&[b4]), SolveResult::Sat);
        // Bound 1 is impossible: two dependent gates.
        let b1 = model.depth_bound(1);
        assert_eq!(model.solve(&[b1]), SolveResult::Unsat);
    }

    #[test]
    fn swap_bound_zero_forbids_swaps() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 8).expect("builds");
        let s0 = model.swap_bound(0, 4);
        assert_eq!(model.solve(&[s0]), SolveResult::Unsat); // triangle needs a swap
        let s1 = model.swap_bound(1, 4);
        let r1 = model.solve(&[s1]);
        assert_eq!(r1, SolveResult::Sat);
        let result = model.extract();
        assert_eq!(result.swap_count(), 1);
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn all_encodings_agree_on_feasibility() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        for enc in [
            EncodingConfig::bv(),
            EncodingConfig::int(),
            EncodingConfig::euf_int(),
            EncodingConfig::euf_bv(),
        ] {
            let config = SynthesisConfig {
                encoding: enc,
                swap_duration: 1,
                ..SynthesisConfig::default()
            };
            let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
            let s0 = model.swap_bound(0, 3);
            assert_eq!(model.solve(&[s0]), SolveResult::Unsat, "{enc:?}");
            let s1 = model.swap_bound(1, 3);
            assert_eq!(model.solve(&[s1]), SolveResult::Sat, "{enc:?}");
            let result = model.extract();
            assert_eq!(verify(&circuit, &graph, &result), Ok(()), "{enc:?}");
        }
    }

    /// The verdict of `model` at every (depth bound, SWAP bound ≤
    /// `max_swaps`) pair, verifying every layout it finds.
    fn verdict_grid(
        model: &mut FlatModel,
        circuit: &Circuit,
        graph: &CouplingGraph,
        max_swaps: usize,
    ) -> Vec<SolveResult> {
        let mut verdicts = Vec::new();
        for d in 1..=model.t_ub() {
            for k in 0..=max_swaps {
                let bounds = [model.depth_bound(d), model.swap_bound(k, max_swaps)];
                let verdict = model.solve(&bounds);
                if verdict == SolveResult::Sat {
                    let result = model.extract();
                    assert!(result.depth <= d && result.swap_count() <= k);
                    assert_eq!(verify(circuit, graph, &result), Ok(()));
                }
                verdicts.push(verdict);
            }
        }
        verdicts
    }

    #[test]
    fn overlap_forms_agree_at_every_bound_pair() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        circuit.push(Gate::one(GateKind::H, 1));
        let graph = line(3);
        // (S_D, window the grown model starts at, full window): both
        // windows keep the binary time width, so the growth happens in
        // place; with S_D = 3 the busy windows of the new finish steps
        // reach below the old window end.
        for (sd, t_small, t_ub) in [(1, 5, 7), (3, 5, 8)] {
            for mapping in [MappingEncoding::OneHot, MappingEncoding::Binary] {
                for time in [TimeEncoding::OneHot, TimeEncoding::Binary] {
                    let config = SynthesisConfig {
                        encoding: EncodingConfig {
                            mapping,
                            time,
                            ..EncodingConfig::default()
                        },
                        swap_duration: sd,
                        ..SynthesisConfig::default()
                    };
                    let build = |t, overlap| {
                        FlatModel::build_with_overlap(&circuit, &graph, &config, t, overlap)
                            .expect("builds")
                    };
                    let mut per_gate = build(t_ub, OverlapForm::PerGate);
                    let mut window = build(t_ub, OverlapForm::Window);
                    let mut grown = build(t_small, OverlapForm::Window);
                    assert!(grown.extend_window(&circuit, &graph, t_ub));
                    assert_eq!(grown.overlap(), OverlapForm::Window);
                    let tag = format!("S_D={sd} {mapping:?}/{time:?}");
                    let expected = verdict_grid(&mut per_gate, &circuit, &graph, 2);
                    assert!(expected.contains(&SolveResult::Sat), "{tag}");
                    assert!(expected.contains(&SolveResult::Unsat), "{tag}");
                    for (label, model) in [("window", &mut window), ("grown", &mut grown)] {
                        let verdicts = verdict_grid(model, &circuit, &graph, 2);
                        assert_eq!(verdicts, expected, "{tag} {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn window_form_shrinks_only_swap_descent_models() {
        // tof-3 on line5, S_D = 3, at the window phase 1 starts with.
        let circuit = olsq2_circuit::generators::tof_circuit(3);
        let graph = line(5);
        let config = SynthesisConfig::with_swap_duration(3);
        let scheduling = |m: &FlatModel| m.breakdown().get(ConstraintFamily::Scheduling).clauses;
        let depth = FlatModel::build(&circuit, &graph, &config, 47).expect("builds");
        assert_eq!(depth.overlap(), OverlapForm::PerGate);
        assert_eq!(depth.formula_size(), (7_991, 119_661));
        assert_eq!(scheduling(&depth), 56_252);
        let swaps =
            FlatModel::build_with_overlap(&circuit, &graph, &config, 47, OverlapForm::Window)
                .expect("builds");
        // One busy literal per program qubit and finish step 2..47.
        assert_eq!(swaps.formula_size(), (7_991 + 5 * 45, 80_882));
        assert_eq!(scheduling(&swaps), 17_473);
    }

    #[test]
    fn baseline_style_agrees_with_olsq2() {
        use crate::model::ModelStyle;
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut baseline =
            FlatModel::build_with_style(&circuit, &graph, &config, 6, ModelStyle::OlsqBaseline)
                .expect("builds");
        let mut succinct = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // The baseline carries strictly more variables (the space vars).
        assert!(baseline.formula_size().0 > succinct.formula_size().0);
        // Both agree on swap feasibility bounds.
        for k in 0..3usize {
            let ab = baseline.swap_bound(k, 3);
            let sb = succinct.swap_bound(k, 3);
            let rb = baseline.solve(&[ab]);
            let rs = succinct.solve(&[sb]);
            assert_eq!(rb, rs, "k={k}");
            if rb == SolveResult::Sat {
                let res = baseline.extract();
                assert_eq!(verify(&circuit, &graph, &res), Ok(()));
            }
        }
    }

    #[test]
    fn seeded_variable_order_preserves_answers() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.seed_variable_order = true;
        let mut seeded = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        config.seed_variable_order = false;
        let mut plain = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        for k in 0..3usize {
            let a = seeded.swap_bound(k, 3);
            let b = plain.swap_bound(k, 3);
            assert_eq!(seeded.solve(&[a]), plain.solve(&[b]), "k={k}");
        }
    }

    #[test]
    fn breakdown_accounts_for_the_whole_formula() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // Every build-time family is populated (clauses may be stored as
        // trail units, so compare vars exactly and clauses as an upper
        // bound: some clauses become root-level units or are simplified).
        for fam in [
            ConstraintFamily::Mapping,
            ConstraintFamily::Dependency,
            ConstraintFamily::Swap,
            ConstraintFamily::Scheduling,
            ConstraintFamily::Transition,
        ] {
            assert!(model.breakdown().get(fam).vars > 0 || model.breakdown().get(fam).clauses > 0);
        }
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
        assert_eq!(model.breakdown().total().clauses, model.formula_size().1);
        // Bound machinery lands in the cardinality family.
        let before = model.breakdown().get(ConstraintFamily::Cardinality);
        model.swap_bound(1, 3);
        model.depth_bound(4);
        let after = model.breakdown().get(ConstraintFamily::Cardinality);
        assert!(after.vars > before.vars);
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
    }

    #[test]
    fn rejects_structurally_bad_instances() {
        let graph = line(2);
        let mut big = Circuit::new(3);
        big.push(Gate::two(GateKind::Cx, 0, 2));
        let config = SynthesisConfig::default();
        assert!(matches!(
            FlatModel::build(&big, &graph, &config, 4),
            Err(ModelError::TooManyQubits { .. })
        ));
        assert!(matches!(
            FlatModel::build(&Circuit::new(2), &graph, &config, 4),
            Err(ModelError::EmptyCircuit)
        ));
    }

    #[test]
    fn swap_duration_three_spaces_out_swaps() {
        // One swap needed; with S_D=3 the earliest finish is t=2, so the
        // dependent gate lands at t≥3.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(3);
        let mut model = FlatModel::build(&circuit, &graph, &config, 10).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        assert!(result.swaps.iter().all(|s| s.finish_time >= 2));
    }
}
