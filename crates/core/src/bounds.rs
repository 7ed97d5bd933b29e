//! Speculative bound-parallel search: race several objective bounds on
//! forked solver snapshots instead of walking them one at a time.
//!
//! The paper's optimization loops (§III-B) probe a *sequence* of bounds:
//! depth `T−1, T−2, …` after the first SAT, then SWAP counts
//! `s−1, s'−1, …` under each depth. Every probe is a monotone threshold
//! query — SAT at `b` implies SAT at every `b' ≥ b`, UNSAT at `b` implies
//! UNSAT at every `b' ≤ b` — so probe results commute: any set of
//! verdicts collapses to one bracket `[lo, hi]` with `lo ≤ optimum ≤ hi`
//! (`hi` carries a witness, every bound below `lo` carries a refutation),
//! and the optimum the bracket converges to is independent of the order
//! (or concurrency) in which the probes ran.
//!
//! [`BoundScheduler`] exploits that:
//!
//! * **Encode-once cohort.** Phase 1 (geometric relaxation, shared with
//!   [`Olsq2Synthesizer`]) leaves a warm, fully-encoded model. The
//!   scheduler pre-arms the entire decrement bracket of depth activators
//!   on it, then forks one O(memcpy) snapshot per worker
//!   ([`FlatModel::fork`]). Pre-arming matters twice: forks resolve any
//!   bound in the bracket from their cloned cache without allocating
//!   variables (keeping their clause-sharing fences aligned), and the
//!   activator clauses are encoded once instead of once per worker.
//! * **Bound race.** Workers claim bounds from the live bracket: the
//!   *frontier* (`hi − 1`) is probed un-budgeted — with one worker the
//!   race degenerates to exactly the paper's sequential decrement — and
//!   spare workers *speculate* on widest-gap midpoints under a conflict
//!   budget ([`BoundRaceConfig::speculation_budget`]). A SAT verdict
//!   lowers `hi` to the witness's achieved value (publishing it as the
//!   incumbent), an UNSAT verdict raises `lo`, and either side
//!   cooperatively cancels probes the new bracket dominates (a probe at
//!   `b ≥ hi` is already known SAT, at `b < lo` known UNSAT) via
//!   per-probe stop flags.
//! * **SWAP phase without re-encode.** The depth-phase workers are kept —
//!   warm learnts, aligned spaces — and re-armed with the cached SWAP
//!   cardinality activators, just as the sequential
//!   [`Olsq2Synthesizer::optimize_swaps`] continues on its depth-phase
//!   model; each descent under a fixed depth races the bracket
//!   `[0, s−1]` the same way, and the Pareto depth-relaxation probe runs
//!   sequentially on worker 0 (preserving the paper's termination
//!   conditions verbatim).
//! * **Cross-bound clause sharing.** Workers share learnts through a
//!   [`SharedClausePool`]; exports are fenced to pre-build variables, so
//!   a learnt never mentions a bound activator and is therefore valid at
//!   *every* bound — a probe at `T+2` warm-starts the probe at `T+1`.
//!   [`SharingStats::cross_bound`] counts exactly those deliveries.
//! * **Cube escalation.** When the bracket narrows to a single undecided
//!   bound in the depth phase — the UNSAT-bracketing side, where
//!   cube-and-conquer measurably wins — and [`BoundRaceConfig::cube`] is
//!   set, the claiming worker first retries the bound under the cube
//!   gate budget and, if still undecided, forks a cube cohort from its
//!   own warm model and lets `olsq2-cube` finish the job.
//! * **Proofs.** With [`SynthesisConfig::proof_log`] (sharing forced
//!   off), every worker logs clauses and core lemmas; the refutation of
//!   the decisive bound (`optimum − 1`) is sealed into a self-contained
//!   RUP-checkable certificate by closing the worker's cloned log with
//!   the failed-assumption core ([`olsq2_sat::Solver::final_conflict`])
//!   as units. Cube escalations hand back an already-stitched proof.

use crate::config::{SolverDiversification, SynthesisConfig};
use crate::cube::{CubeModel, CubeParams};
use crate::model::{FlatModel, OverlapForm};
use crate::optimize::{
    result_str, FirstSat, Olsq2Synthesizer, SwapOptimizationOutcome, SynthesisError,
    SynthesisOutcome, MAX_T_UB,
};
use crate::sharing::{CohortEndpoint, SharedClausePool, SharingStats};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::Circuit;
use olsq2_cube::{solve_cubes, CubeConfig};
use olsq2_layout::LayoutResult;
use olsq2_obs::{SampleSource, SearchSample};
use olsq2_sat::{ClauseExchange, Lit, Proof, ProofStep, SolveResult, Stats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Diversification seed for the bound-race cohort (worker 0 vanilla).
const BOUND_SEED: u64 = 0x00B0_7CE5;

/// Diversification seed for cube cohorts forked by a decisive-probe
/// escalation (distinct from the race seed so the cube workers do not
/// mirror the race workers they forked from).
const BOUND_CUBE_SEED: u64 = 0x00B0_C0BE;

/// Knobs for the bound-race scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundRaceConfig {
    /// Worker threads racing bounds (≥ 1; 0 is clamped to 1). Worker 1
    /// always holds the frontier, so `workers: 1` reproduces the
    /// sequential walk exactly.
    pub workers: usize,
    /// Conflict budget for speculative (non-frontier) probes. Keeps
    /// speculation from starving the frontier on oversubscribed
    /// machines; a probe that exhausts it is parked (its learnts stay)
    /// until its bound becomes the frontier.
    pub speculation_budget: u64,
    /// Maximum concurrently *running* speculative probes. The default of
    /// 1 is tuned for time-sliced cores: one frontier probe plus one
    /// budgeted scout; spare workers wait (cheaply) for the bracket to
    /// move rather than thrash the cache.
    pub max_speculative: usize,
    /// Per-shard clause capacity of the cohort's sharing pool.
    pub pool_capacity: usize,
    /// Decisive-probe cube escalation (depth phase only): when the
    /// bracket narrows to one undecided bound and a gate-budget retry
    /// leaves it undecided, cube-and-conquer it with these parameters.
    /// `None` disables escalation.
    pub cube: Option<CubeParams>,
    /// Clamp the cohort to the machine's available parallelism. Every
    /// probe thread beyond the core count time-slices *against* the
    /// decisive frontier probe, inflating wall-clock instead of hiding
    /// it — so on a single core the race degrades gracefully to the
    /// warm sequential walk (one worker, no fork, no pool) while still
    /// reusing the depth cohort for the SWAP phase. Disable to force
    /// the configured shape regardless of hardware (differential tests
    /// exercise the racing machinery deterministically this way).
    pub auto_tune: bool,
}

impl Default for BoundRaceConfig {
    fn default() -> Self {
        BoundRaceConfig {
            workers: 4,
            speculation_budget: 20_000,
            max_speculative: 1,
            pool_capacity: 4096,
            cube: None,
            auto_tune: true,
        }
    }
}

/// Per-race probe accounting (also mirrored into recorder counters
/// `bound.probes.*` and the `bound.bracket_width` gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundProbeStats {
    /// Probes that answered SAT.
    pub sat: u64,
    /// Probes that answered UNSAT.
    pub unsat: u64,
    /// Probes cooperatively cancelled after the bracket dominated them.
    pub cancelled: u64,
    /// Probes that ran out of budget (speculation budget, or the global
    /// budget on a frontier probe — the latter aborts the race).
    pub unknown: u64,
    /// Speculative (non-frontier, budgeted) probes launched.
    pub speculative: u64,
    /// SAT verdicts whose witness beat the probed bound, collapsing the
    /// bracket by more than one step.
    pub bracket_jumps: u64,
}

impl BoundProbeStats {
    fn absorb(&mut self, other: &BoundProbeStats) {
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.cancelled += other.cancelled;
        self.unknown += other.unknown;
        self.speculative += other.speculative;
        self.bracket_jumps += other.bracket_jumps;
    }
}

/// Result of a bound-raced depth optimization.
#[derive(Debug)]
pub struct BoundDepthOutcome {
    /// The usual synthesis outcome. `solver_stats` aggregates every
    /// worker; `formula_size` is worker 0's.
    pub outcome: SynthesisOutcome,
    /// Probe accounting summed over the race.
    pub probes: BoundProbeStats,
    /// Clause-sharing volumes across the cohort (`None` when sharing was
    /// off: single worker or proof mode).
    pub sharing: Option<SharingStats>,
    /// With [`SynthesisConfig::proof_log`] and a proven optimum above the
    /// structural lower bound: a sealed RUP-checkable refutation of
    /// `depth ≤ optimum − 1`.
    pub refutation: Option<Proof>,
}

/// Result of a bound-raced SWAP optimization.
#[derive(Debug)]
pub struct BoundSwapOutcome {
    /// Best solution and the explored Pareto points.
    pub outcome: SwapOptimizationOutcome,
    /// Probe accounting summed over the depth phase and every descent.
    pub probes: BoundProbeStats,
    /// Clause-sharing volumes across the cohort.
    pub sharing: Option<SharingStats>,
    /// With [`SynthesisConfig::proof_log`] and a positive proven SWAP
    /// optimum: a sealed refutation of `swaps ≤ optimum − 1` under the
    /// final depth bound.
    pub refutation: Option<Proof>,
}

/// One outstanding probe.
struct Claim {
    bound: usize,
    worker: usize,
    speculative: bool,
    cancel: Arc<AtomicBool>,
}

/// How a refuted bound justifies itself (proof mode only).
enum Refutation {
    /// Failed-assumption core of a worker's UNSAT; sealed after the race
    /// against that worker's proof log.
    Core { worker: usize, core: Vec<Lit> },
    /// Already self-contained (stitched by a cube escalation).
    Sealed(Box<Proof>),
}

/// Shared race state: the live bracket, the incumbent, and the claims.
struct RaceState {
    /// Bracket invariant: every bound `< lo` is refuted, `hi` carries a
    /// witness, so `lo ≤ optimum ≤ hi`; `lo == hi` means converged.
    lo: usize,
    hi: usize,
    incumbent: LayoutResult,
    /// Every incumbent improvement, in publication order (the SWAP
    /// descent turns these into Pareto points).
    improvements: Vec<LayoutResult>,
    claims: Vec<Claim>,
    /// Bounds whose speculative probe exhausted its budget; not
    /// re-speculated (their learnts are already banked), but still probed
    /// un-budgeted if they become the frontier.
    deferred: BTreeSet<usize>,
    /// A frontier probe ran out of global budget (deadline, stop flag,
    /// conflict budget): keep the incumbent, stop the race — exactly the
    /// sequential loops' `Unknown => break`.
    aborted: bool,
    iterations: usize,
    probes: BoundProbeStats,
    refuted: Vec<(usize, Refutation)>,
}

impl RaceState {
    fn done(&self) -> bool {
        self.aborted || self.lo >= self.hi
    }

    fn claimed(&self, bound: usize) -> bool {
        self.claims.iter().any(|c| c.bound == bound)
    }

    /// Picks the next bound to probe: the frontier (`hi − 1`,
    /// un-budgeted) if free, else — capacity permitting — the midpoint of
    /// the widest gap between the anchors `{lo − 1} ∪ claimed ∪ {hi}`.
    /// `None` means "wait for the bracket to move".
    fn select(&self, max_speculative: usize) -> Option<(usize, bool)> {
        debug_assert!(self.lo < self.hi);
        let frontier = self.hi - 1;
        if !self.claimed(frontier) {
            return Some((frontier, false));
        }
        let running = self.claims.iter().filter(|c| c.speculative).count();
        if running >= max_speculative {
            return None;
        }
        let mut anchors: Vec<i64> = self.claims.iter().map(|c| c.bound as i64).collect();
        anchors.push(self.lo as i64 - 1);
        anchors.push(self.hi as i64);
        anchors.sort_unstable();
        anchors.dedup();
        let mut best: Option<(i64, usize)> = None;
        for pair in anchors.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let gap = b - a;
            if gap <= 1 {
                continue;
            }
            let mid = ((a + b) / 2) as usize;
            if mid < self.lo || mid >= self.hi || self.claimed(mid) || self.deferred.contains(&mid)
            {
                continue;
            }
            if best.is_none_or(|(g, _)| gap > g) {
                best = Some((gap, mid));
            }
        }
        best.map(|(_, b)| (b, true))
    }
}

struct RaceShared {
    state: Mutex<RaceState>,
    cv: Condvar,
}

/// What one probe concluded.
enum ProbeVerdict {
    Sat(LayoutResult),
    Unsat(Option<Refutation>),
    Unknown,
}

/// Everything a finished race hands back.
struct RaceOutcome {
    hi: usize,
    incumbent: LayoutResult,
    improvements: Vec<LayoutResult>,
    aborted: bool,
    iterations: usize,
    probes: BoundProbeStats,
    refuted: Vec<(usize, Refutation)>,
}

/// The depth phase's full residue: the warm cohort plus the outcome, so
/// the SWAP phase can reuse the workers without a re-encode.
struct DepthPhase {
    workers: Vec<FlatModel>,
    endpoints: Vec<Option<Arc<CohortEndpoint>>>,
    current: LayoutResult,
    t_lb: usize,
    iterations: usize,
    proven: bool,
    probes: BoundProbeStats,
    refutation: Option<Proof>,
}

/// Optimizer that races objective bounds on forked solver snapshots
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use olsq2::bounds::{BoundRaceConfig, BoundScheduler};
/// use olsq2::SynthesisConfig;
/// use olsq2_arch::line;
/// use olsq2_circuit::{Circuit, Gate, GateKind};
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(3);
/// circuit.push(Gate::two(GateKind::Cx, 0, 1));
/// circuit.push(Gate::two(GateKind::Cx, 1, 2));
/// circuit.push(Gate::two(GateKind::Cx, 0, 2));
/// let graph = line(3);
/// let synth = BoundScheduler::new(
///     SynthesisConfig::with_swap_duration(1),
///     BoundRaceConfig { workers: 2, ..BoundRaceConfig::default() },
/// );
/// let out = synth.optimize_depth(&circuit, &graph)?;
/// assert!(out.outcome.proven_optimal);
/// assert_eq!(verify(&circuit, &graph, &out.outcome.result), Ok(()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BoundScheduler {
    inner: Olsq2Synthesizer,
    race: BoundRaceConfig,
}

impl BoundScheduler {
    /// Creates the scheduler. With [`SynthesisConfig::proof_log`] any
    /// configured clause exchange is dropped — sealed refutations must be
    /// self-contained, and imported lemmas carry no derivation.
    pub fn new(mut config: SynthesisConfig, race: BoundRaceConfig) -> BoundScheduler {
        if config.proof_log {
            config.clause_exchange = None;
        }
        BoundScheduler {
            inner: Olsq2Synthesizer::new(config),
            race,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        self.inner.config()
    }

    /// The race knobs.
    pub fn race(&self) -> &BoundRaceConfig {
        &self.race
    }

    /// The cohort size actually raced: the configured worker count,
    /// clamped to the machine's available parallelism under
    /// [`BoundRaceConfig::auto_tune`].
    fn effective_workers(&self) -> usize {
        let n = self.race.workers.max(1);
        if self.race.auto_tune {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            n.min(cores)
        } else {
            n
        }
    }

    /// Builds the worker cohort from a pre-armed template: one O(memcpy)
    /// fork per worker, diversified, wired to a fresh sharing pool
    /// unless proving (or racing alone). A cohort of one adopts the
    /// template itself — no fork, no pool, and the template's learnts
    /// (from phase 1 and earlier races) stay live.
    fn fork_cohort(
        &self,
        mut template: FlatModel,
    ) -> (Vec<FlatModel>, Vec<Option<Arc<CohortEndpoint>>>) {
        let config = self.inner.config();
        let n = self.effective_workers();
        if n == 1 {
            if config.proof_log {
                template.solver_mut().set_core_lemmas(true);
            }
            return (vec![template], vec![None]);
        }
        let share = !config.proof_log && n >= 2;
        let endpoints: Vec<Option<Arc<CohortEndpoint>>> = if share {
            let pool = Arc::new(SharedClausePool::new(n, self.race.pool_capacity.max(1)));
            (0..n)
                .map(|i| {
                    Some(Arc::new(
                        CohortEndpoint::new(pool.clone(), i, config.recorder.clone())
                            .with_probe(config.probe.clone()),
                    ))
                })
                .collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let mut workers = Vec::with_capacity(n);
        for (i, endpoint) in endpoints.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.diversification = SolverDiversification::variant(BOUND_SEED, i);
            cfg.clause_exchange = endpoint.clone().map(|e| e as Arc<dyn ClauseExchange>);
            let span = config.recorder.span("fork");
            span.set("bound_worker", i);
            let mut model = template.fork(&cfg);
            drop(span);
            model.solver_mut().set_recorder(config.recorder.clone());
            model.solver_mut().set_probe(config.probe.clone());
            if config.proof_log {
                model.solver_mut().set_core_lemmas(true);
            }
            workers.push(model);
        }
        (workers, endpoints)
    }

    /// Seals the refutation of `bound` from the race's residue: a cube
    /// escalation's proof is already closed; a worker core is closed by
    /// cloning that worker's (still-recording) proof log and appending
    /// the core assumptions as units plus the empty clause — the logged
    /// core lemma then propagates to a contradiction, so the checker
    /// accepts it. Sound even though the log may contain later probes'
    /// lemmas: CDCL learnts are implied by the clause database alone
    /// (assumptions never enter a learnt's derivation), so every logged
    /// lemma is RUP wherever it appears.
    fn seal_refutation(
        workers: &mut [FlatModel],
        refuted: &[(usize, Refutation)],
        bound: usize,
    ) -> Option<Proof> {
        let (_, refutation) = refuted.iter().find(|(b, _)| *b == bound)?;
        match refutation {
            Refutation::Sealed(proof) => Some((**proof).clone()),
            Refutation::Core { worker, core } => {
                let mut proof = workers[*worker].solver_mut().clone_proof()?;
                for &a in core {
                    proof.push(ProofStep::Original(vec![a]));
                }
                proof.push(ProofStep::Empty);
                Some(proof)
            }
        }
    }

    fn fold_sharing(endpoints: &[Option<Arc<CohortEndpoint>>]) -> Option<SharingStats> {
        let mut acc = SharingStats::default();
        let mut any = false;
        for endpoint in endpoints.iter().flatten() {
            any = true;
            let s = endpoint.stats();
            acc.exported += s.exported;
            acc.imported += s.imported;
            acc.filtered += s.filtered;
            acc.cross_bound += s.cross_bound;
        }
        any.then_some(acc)
    }

    /// Cube-and-conquer one decisive bound on forks of `model` (which
    /// stays warm for later probes). Only global interrupts apply: with a
    /// single undecided bound no verdict elsewhere can dominate it.
    fn cube_probe(
        &self,
        model: &mut FlatModel,
        bound: usize,
        deadline: Option<Instant>,
    ) -> ProbeVerdict {
        let config = self.inner.config();
        let params = self.race.cube.as_ref().expect("cube escalation gated");
        let n = params.workers.max(1);
        let span = self.inner.iteration_span("depth", &[("t_bound", bound)]);
        span.set("strategy", "bound-race-cube");
        let mut slots: Vec<Mutex<Option<CubeModel>>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut cfg = config.clone();
            cfg.diversification = SolverDiversification::variant(BOUND_CUBE_SEED, i);
            cfg.clause_exchange = None;
            let mut fork = model.fork(&cfg);
            let solver = fork.solver_mut();
            solver.set_recorder(config.recorder.clone());
            solver.set_probe(config.probe.clone());
            // The base was armed for the racing probe; the cube engine
            // manages its own budgets.
            solver.set_deadline(None);
            solver.set_conflict_budget(None);
            solver.set_stop_flags(Vec::new());
            let mut cube_model = CubeModel::new(fork, None);
            cube_model.arm_depth(bound);
            slots.push(Mutex::new(Some(cube_model)));
        }
        let cube_cfg = CubeConfig {
            workers: n,
            depth: params.depth,
            conflict_budget: params.conflict_budget,
            prove: config.proof_log,
            deadline,
            external_stop: config.stop_flag.clone(),
            probe: config.probe.clone(),
            ..CubeConfig::default()
        };
        let run = solve_cubes(
            |i| {
                slots[i]
                    .lock()
                    .expect("cube slot poisoned")
                    .take()
                    .expect("cube slot filled once")
            },
            &cube_cfg,
            &config.recorder,
        );
        span.set("result", result_str(run.result));
        span.set("cubes", run.stats.cubes_split);
        match run.result {
            SolveResult::Sat => {
                let w = run.sat_worker.expect("SAT run names its worker");
                ProbeVerdict::Sat(run.workers[w].model().extract())
            }
            SolveResult::Unsat => {
                ProbeVerdict::Unsat(run.proof.map(|p| Refutation::Sealed(Box::new(p))))
            }
            SolveResult::Unknown => ProbeVerdict::Unknown,
        }
    }

    /// One worker's race loop: claim a bound, probe it, report, repeat.
    #[allow(clippy::too_many_arguments)]
    fn run_worker<A, V>(
        &self,
        w: usize,
        model: &mut FlatModel,
        endpoint: Option<&Arc<CohortEndpoint>>,
        shared: &RaceShared,
        objective: &'static str,
        bound_key: &'static str,
        fixed_bounds: &[(&'static str, usize)],
        allow_cube: bool,
        deadline: Option<Instant>,
        arm: &A,
        achieved: &V,
    ) where
        A: Fn(&mut FlatModel, usize) -> Vec<Lit> + Sync,
        V: Fn(&LayoutResult) -> usize + Sync,
    {
        let config = self.inner.config();
        let recorder = &config.recorder;
        loop {
            // --- Claim -------------------------------------------------
            let (bound, speculative, cancel, escalate) = {
                let mut st = shared.state.lock().expect("race state poisoned");
                loop {
                    if st.done() {
                        return;
                    }
                    if let Some((bound, speculative)) = st.select(self.race.max_speculative.max(1))
                    {
                        let cancel = Arc::new(AtomicBool::new(false));
                        st.claims.push(Claim {
                            bound,
                            worker: w,
                            speculative,
                            cancel: cancel.clone(),
                        });
                        st.iterations += 1;
                        if speculative {
                            st.probes.speculative += 1;
                            if recorder.is_enabled() {
                                recorder.add("bound.probes.speculative", 1);
                            }
                        }
                        let escalate = allow_cube
                            && self.race.cube.is_some()
                            && !speculative
                            && st.hi - st.lo == 1;
                        break (bound, speculative, cancel, escalate);
                    }
                    st = shared.cv.wait(st).expect("race state poisoned");
                }
            };

            // --- Probe (no locks held) ---------------------------------
            let mut bounds: Vec<(&'static str, usize)> = fixed_bounds.to_vec();
            bounds.push((bound_key, bound));
            let span = self.inner.iteration_span(objective, &bounds);
            span.set("strategy", "bound-race");
            if speculative {
                span.set("speculative", true);
            }
            let encode_start = Instant::now();
            let acts = arm(model, bound);
            span.set("encode_us", encode_start.elapsed().as_micros() as u64);
            {
                let solver = model.solver_mut();
                solver.set_deadline(deadline);
                let budget = if speculative {
                    let b = self.race.speculation_budget;
                    Some(config.conflict_budget.map_or(b, |c| c.min(b)))
                } else if escalate {
                    // The cube gate: a bounded sequential attempt before
                    // forking a cube cohort, so SAT-likely bounds never
                    // pay the cube overhead.
                    let gate = self.race.cube.as_ref().expect("gated").conflict_budget;
                    Some(config.conflict_budget.map_or(gate, |c| c.min(gate)))
                } else {
                    config.conflict_budget
                };
                solver.set_conflict_budget(budget);
                let mut stops = Vec::with_capacity(2);
                if let Some(global) = &config.stop_flag {
                    stops.push(global.clone());
                }
                stops.push(cancel.clone());
                solver.set_stop_flags(stops);
            }
            if let Some(endpoint) = endpoint {
                // Tag exports with the probed bound (+1 keeps 0 meaning
                // "untagged") so cross-bound deliveries are measurable.
                endpoint.note_bound(bound as u64 + 1);
            }
            let stats_before = model.solver_mut().stats();
            let solve_start = Instant::now();
            let res = model.solve(&acts);
            span.set("solve_us", solve_start.elapsed().as_micros() as u64);
            span.set("result", result_str(res));
            let stats_after = model.solver_mut().stats();
            Olsq2Synthesizer::set_iteration_deltas(&span, stats_before, stats_after);
            drop(span);

            let mut extra_iterations = 0usize;
            let mut verdict = match res {
                SolveResult::Sat => ProbeVerdict::Sat(model.extract()),
                SolveResult::Unsat => {
                    ProbeVerdict::Unsat(config.proof_log.then(|| Refutation::Core {
                        worker: w,
                        core: model.solver_mut().final_conflict().to_vec(),
                    }))
                }
                SolveResult::Unknown => ProbeVerdict::Unknown,
            };
            if matches!(verdict, ProbeVerdict::Unknown)
                && escalate
                && !cancel.load(Ordering::Relaxed)
                && config
                    .stop_flag
                    .as_ref()
                    .is_none_or(|f| !f.load(Ordering::Relaxed))
                && deadline.is_none_or(|d| Instant::now() < d)
            {
                verdict = self.cube_probe(model, bound, deadline);
                extra_iterations = 1;
            }

            config.probe.record(SearchSample {
                source: SampleSource::Bound,
                conflicts: stats_after.conflicts,
                decisions: stats_after.decisions,
                propagations: stats_after.propagations,
                restarts: stats_after.restarts,
                ..SearchSample::default()
            });

            // --- Report ------------------------------------------------
            let mut st = shared.state.lock().expect("race state poisoned");
            let pos = st
                .claims
                .iter()
                .position(|c| c.worker == w)
                .expect("claim registered");
            let claim = st.claims.swap_remove(pos);
            debug_assert_eq!(claim.bound, bound);
            st.iterations += extra_iterations;
            match verdict {
                ProbeVerdict::Sat(layout) => {
                    st.probes.sat += 1;
                    if recorder.is_enabled() {
                        recorder.add("bound.probes.sat", 1);
                    }
                    let value = achieved(&layout);
                    // A dominated SAT (the bracket already moved past this
                    // bound) is stale — sound but uninformative.
                    if value < st.hi {
                        if value < bound {
                            st.probes.bracket_jumps += 1;
                            if recorder.is_enabled() {
                                recorder.add("bound.bracket_jumps", 1);
                            }
                        }
                        st.hi = value;
                        self.inner.publish_incumbent(&layout);
                        st.incumbent = layout.clone();
                        st.improvements.push(layout);
                        let hi = st.hi;
                        for c in &st.claims {
                            if c.bound >= hi {
                                c.cancel.store(true, Ordering::Relaxed);
                            }
                        }
                        st.deferred.retain(|&b| b < hi);
                    }
                }
                ProbeVerdict::Unsat(refutation) => {
                    st.probes.unsat += 1;
                    if recorder.is_enabled() {
                        recorder.add("bound.probes.unsat", 1);
                    }
                    if bound >= st.lo {
                        st.lo = bound + 1;
                        let lo = st.lo;
                        for c in &st.claims {
                            if c.bound < lo {
                                c.cancel.store(true, Ordering::Relaxed);
                            }
                        }
                        st.deferred.retain(|&b| b >= lo);
                    }
                    if let Some(refutation) = refutation {
                        st.refuted.push((bound, refutation));
                    }
                }
                ProbeVerdict::Unknown => {
                    if claim.cancel.load(Ordering::Relaxed) {
                        st.probes.cancelled += 1;
                        if recorder.is_enabled() {
                            recorder.add("bound.probes.cancelled", 1);
                        }
                    } else {
                        st.probes.unknown += 1;
                        if recorder.is_enabled() {
                            recorder.add("bound.probes.unknown", 1);
                        }
                        if claim.speculative {
                            st.deferred.insert(bound);
                        } else {
                            // Frontier out of global budget: the race is
                            // over, keep the incumbent.
                            st.aborted = true;
                            for c in &st.claims {
                                c.cancel.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            debug_assert!(st.lo <= st.hi, "bracket stays ordered");
            recorder.gauge_set("bound.bracket_width", (st.hi - st.lo) as u64);
            shared.cv.notify_all();
        }
    }

    /// Races one bracket `[lo, hi]` down to convergence (or abort) on the
    /// cohort. `hi` must carry `incumbent` as its witness.
    #[allow(clippy::too_many_arguments)]
    fn race_down<A, V>(
        &self,
        objective: &'static str,
        bound_key: &'static str,
        fixed_bounds: &[(&'static str, usize)],
        lo: usize,
        hi: usize,
        incumbent: LayoutResult,
        allow_cube: bool,
        workers: &mut [FlatModel],
        endpoints: &[Option<Arc<CohortEndpoint>>],
        deadline: Option<Instant>,
        arm: A,
        achieved: V,
    ) -> RaceOutcome
    where
        A: Fn(&mut FlatModel, usize) -> Vec<Lit> + Sync,
        V: Fn(&LayoutResult) -> usize + Sync,
    {
        debug_assert!(lo <= hi);
        let recorder = self.inner.config().recorder.clone();
        recorder.gauge_set("bound.bracket_width", (hi - lo) as u64);
        let shared = RaceShared {
            state: Mutex::new(RaceState {
                lo,
                hi,
                incumbent,
                improvements: Vec::new(),
                claims: Vec::new(),
                deferred: BTreeSet::new(),
                aborted: false,
                iterations: 0,
                probes: BoundProbeStats::default(),
                refuted: Vec::new(),
            }),
            cv: Condvar::new(),
        };
        if lo < hi {
            std::thread::scope(|scope| {
                let shared = &shared;
                let arm = &arm;
                let achieved = &achieved;
                for (w, (model, endpoint)) in workers.iter_mut().zip(endpoints.iter()).enumerate() {
                    scope.spawn(move || {
                        self.run_worker(
                            w,
                            model,
                            endpoint.as_ref(),
                            shared,
                            objective,
                            bound_key,
                            fixed_bounds,
                            allow_cube,
                            deadline,
                            arm,
                            achieved,
                        );
                    });
                }
            });
        }
        let st = shared.state.into_inner().expect("race state poisoned");
        RaceOutcome {
            hi: st.hi,
            incumbent: st.incumbent,
            improvements: st.improvements,
            aborted: st.aborted,
            iterations: st.iterations,
            probes: st.probes,
            refuted: st.refuted,
        }
    }

    /// Phase 1 (shared geometric relaxation) + the depth decrement as one
    /// bracketed race. Returns the warm cohort for the SWAP phase; with
    /// `fork_for_swaps` its models carry the SWAP descent's overlap form
    /// ([`OverlapForm::Window`]).
    fn depth_phase(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        deadline: Option<Instant>,
        fork_for_swaps: bool,
    ) -> Result<DepthPhase, SynthesisError> {
        let config = self.inner.config();
        let overlap = if fork_for_swaps {
            OverlapForm::Window
        } else {
            OverlapForm::PerGate
        };
        let FirstSat {
            model: mut template,
            result: first,
            t_lb,
            iterations,
        } = self
            .inner
            .first_feasible_depth(circuit, graph, deadline, overlap)?;
        if first.depth <= t_lb {
            // Phase 1 landed on the structural lower bound: nothing to
            // race. Fork the cohort only if a SWAP phase will use it;
            // otherwise adopt the template as-is (zero fork overhead).
            let (workers, endpoints) = if fork_for_swaps {
                self.fork_cohort(template)
            } else {
                (vec![template], vec![None])
            };
            return Ok(DepthPhase {
                workers,
                endpoints,
                current: first,
                t_lb,
                iterations,
                proven: true,
                probes: BoundProbeStats::default(),
                refutation: None,
            });
        }
        // Pre-arm every depth activator the race can touch on the
        // template, so forks only ever hit their cloned cache: forks
        // resolve bounds without allocating (fences stay aligned) and
        // the activator clauses are encoded once, not once per worker.
        // A cohort of one arms lazily per probe instead — most of the
        // bracket is never touched.
        if self.effective_workers() >= 2 {
            template.depth_bracket(t_lb, first.depth);
        }
        let (mut workers, endpoints) = self.fork_cohort(template);
        let race = self.race_down(
            "depth",
            "t_bound",
            &[],
            t_lb,
            first.depth,
            first,
            true,
            &mut workers,
            &endpoints,
            deadline,
            |model: &mut FlatModel, b: usize| vec![model.depth_bound(b)],
            |layout: &LayoutResult| layout.depth,
        );
        let proven = !race.aborted;
        let refutation = if config.proof_log && proven && race.hi > t_lb {
            Self::seal_refutation(&mut workers, &race.refuted, race.hi - 1)
        } else {
            None
        };
        Ok(DepthPhase {
            workers,
            endpoints,
            current: race.incumbent,
            t_lb,
            iterations: iterations + race.iterations,
            proven,
            probes: race.probes,
            refutation,
        })
    }

    /// Depth optimization (§III-B-1) with the decrement phase raced
    /// across the cohort.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Olsq2Synthesizer::optimize_depth`].
    pub fn optimize_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<BoundDepthOutcome, SynthesisError> {
        let start = Instant::now();
        let config = self.inner.config();
        let deadline = self.inner.deadline();
        let outer = config.recorder.span("optimize_depth");
        outer.set("strategy", "bound-race");
        let mut phase = self.depth_phase(circuit, graph, deadline, false)?;
        outer.set("t_lb", phase.t_lb);
        outer.set("iterations", phase.iterations);
        outer.set("proven_optimal", phase.proven);
        if !phase.proven {
            self.inner
                .capture_snapshot(circuit, graph, &mut phase.workers[0]);
        }
        let mut solver_stats = Stats::default();
        for worker in phase.workers.iter_mut() {
            solver_stats.absorb(&worker.solver_mut().stats());
        }
        Ok(BoundDepthOutcome {
            outcome: SynthesisOutcome {
                result: phase.current,
                proven_optimal: phase.proven,
                iterations: phase.iterations,
                elapsed: start.elapsed(),
                formula_size: phase.workers[0].formula_size(),
                solver_stats,
                extensions: phase.workers[0].extensions(),
            },
            probes: phase.probes,
            sharing: Self::fold_sharing(&phase.endpoints),
            refutation: phase.refutation,
        })
    }

    /// SWAP-count optimization (§III-B-2): the depth phase above, then
    /// each descent under a fixed depth raced as a bracketed binary
    /// search over the cached cardinality activators — no re-encode per
    /// `k`, and the depth cohort carries over warm, as the sequential
    /// path's single model does. The Pareto depth-relaxation probe runs
    /// sequentially on worker 0, preserving the paper's termination
    /// conditions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Olsq2Synthesizer::optimize_swaps`].
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<BoundSwapOutcome, SynthesisError> {
        let start = Instant::now();
        let config = self.inner.config();
        let deadline = self.inner.deadline();
        let outer = config.recorder.span("optimize_swaps");
        outer.set("strategy", "bound-race");
        let phase = self.depth_phase(circuit, graph, deadline, true)?;
        let DepthPhase {
            mut workers,
            endpoints,
            mut current,
            t_lb: _,
            mut iterations,
            proven: _,
            mut probes,
            refutation: _,
        } = phase;
        let mut current_depth = current.depth;
        let capacity = current.swap_count().max(1);
        let mut t_ub = workers[0].t_ub();
        let mut pareto = vec![(current.depth, current.swap_count())];
        let mut refutation: Option<Proof> = None;
        let mut relax_rounds = 0usize;
        let mut proven;

        'outer: loop {
            let s = current.swap_count();
            if s == 0 {
                proven = true;
                break 'outer;
            }
            // Arm this descent's machinery identically on every worker
            // (cache hits after the first descent), keeping the cohort's
            // allocation histories — and so their sharing fences —
            // aligned. A cohort of one arms lazily per probe instead:
            // there is no fence to keep aligned, and witness jumps skip
            // most of the bracket's activators.
            if workers.len() >= 2 {
                for worker in workers.iter_mut() {
                    worker.depth_bound(current_depth);
                    worker.swap_bracket(0, s - 1, capacity);
                }
            }
            let depth_now = current_depth;
            let race = self.race_down(
                "swaps",
                "swap_bound",
                &[("t_bound", depth_now)],
                0,
                s,
                current.clone(),
                false,
                &mut workers,
                &endpoints,
                deadline,
                move |model: &mut FlatModel, b: usize| {
                    vec![model.depth_bound(depth_now), model.swap_bound(b, capacity)]
                },
                |layout: &LayoutResult| layout.swap_count(),
            );
            iterations += race.iterations;
            probes.absorb(&race.probes);
            for improvement in &race.improvements {
                pareto.push((improvement.depth.max(1), improvement.swap_count()));
            }
            current = race.incumbent;
            if race.aborted {
                proven = false;
                break 'outer;
            }
            proven = true; // SWAP optimum under this depth is proven
            if config.proof_log && race.hi > 0 {
                if let Some(proof) = Self::seal_refutation(&mut workers, &race.refuted, race.hi - 1)
                {
                    refutation = Some(proof);
                }
            }
            if current.swap_count() == 0 {
                break 'outer;
            }

            // Relax the depth bound and see whether fewer SWAPs fit
            // (paper's termination condition 2) — sequentially on worker
            // 0, exactly like the sequential loop.
            if let Some(limit) = config.pareto_relax_limit {
                if relax_rounds >= limit {
                    break 'outer;
                }
            }
            relax_rounds += 1;
            let s = current.swap_count();
            let new_depth = current_depth + 1;
            if new_depth > t_ub {
                t_ub = (t_ub + config.swap_duration.max(1)).min(MAX_T_UB);
                if new_depth > t_ub {
                    break 'outer;
                }
                // Rare path: grow every worker in lockstep. Their sharing
                // fences may diverge afterwards (different probe
                // histories), which silences the pool — sound, just
                // quiet.
                for worker in workers.iter_mut() {
                    self.inner.grow_model(circuit, graph, worker, t_ub)?;
                }
            }
            let span = self
                .inner
                .iteration_span("swaps", &[("t_bound", new_depth), ("swap_bound", s - 1)]);
            span.set("strategy", "bound-race");
            let relax_worker = &mut workers[0];
            iterations += 1;
            let res = self.inner.probe(span, relax_worker, deadline, |m| {
                vec![m.depth_bound(new_depth), m.swap_bound(s - 1, capacity)]
            });
            match res {
                SolveResult::Sat => {
                    current = relax_worker.extract();
                    self.inner.publish_incumbent(&current);
                    current_depth = new_depth;
                    pareto.push((current.depth, current.swap_count()));
                }
                SolveResult::Unsat => {
                    proven = true;
                    break 'outer;
                }
                SolveResult::Unknown => {
                    proven = false;
                    break 'outer;
                }
            }
        }

        outer.set("iterations", iterations);
        outer.set("proven_optimal", proven);
        if !proven {
            self.inner.capture_snapshot(circuit, graph, &mut workers[0]);
        }
        let mut solver_stats = Stats::default();
        for worker in workers.iter_mut() {
            solver_stats.absorb(&worker.solver_mut().stats());
        }
        Ok(BoundSwapOutcome {
            outcome: SwapOptimizationOutcome {
                best: SynthesisOutcome {
                    result: current,
                    proven_optimal: proven,
                    iterations,
                    elapsed: start.elapsed(),
                    formula_size: workers[0].formula_size(),
                    solver_stats,
                    extensions: workers[0].extensions(),
                },
                pareto,
            },
            probes,
            sharing: Self::fold_sharing(&endpoints),
            refutation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, ibm_qx2, line};
    use olsq2_circuit::generators::{qaoa_circuit, toffoli_circuit};
    use olsq2_circuit::{Circuit, Gate, GateKind};
    use olsq2_layout::verify;

    // `auto_tune: false`: the tests pin the cohort shape so the racing
    // machinery (speculation, cancellation, sharing) is exercised the
    // same way on any hardware.
    fn race(workers: usize) -> BoundRaceConfig {
        BoundRaceConfig {
            workers,
            auto_tune: false,
            ..BoundRaceConfig::default()
        }
    }

    fn triangle() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        c
    }

    #[test]
    fn depth_race_matches_sequential_optimum() {
        let circuit = toffoli_circuit();
        let device = ibm_qx2();
        let seq = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3))
            .optimize_depth(&circuit, &device)
            .expect("sequential");
        for workers in [1, 2, 4] {
            let out = BoundScheduler::new(SynthesisConfig::with_swap_duration(3), race(workers))
                .optimize_depth(&circuit, &device)
                .expect("race");
            assert!(out.outcome.proven_optimal);
            assert_eq!(out.outcome.result.depth, seq.result.depth);
            assert_eq!(verify(&circuit, &device, &out.outcome.result), Ok(()));
        }
    }

    #[test]
    fn swap_race_matches_sequential_optimum() {
        let circuit = triangle();
        let graph = line(3);
        let seq = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1))
            .optimize_swaps(&circuit, &graph)
            .expect("sequential");
        let out = BoundScheduler::new(SynthesisConfig::with_swap_duration(1), race(3))
            .optimize_swaps(&circuit, &graph)
            .expect("race");
        assert!(out.outcome.best.proven_optimal);
        assert_eq!(
            out.outcome.best.result.swap_count(),
            seq.best.result.swap_count()
        );
        assert_eq!(verify(&circuit, &graph, &out.outcome.best.result), Ok(()));
        assert!(!out.outcome.pareto.is_empty());
    }

    #[test]
    fn zero_swap_instances_prove_immediately() {
        let mut circuit = Circuit::new(4);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 2, 3));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        circuit.push(Gate::two(GateKind::Cx, 1, 3));
        let graph = grid(2, 2);
        let out = BoundScheduler::new(SynthesisConfig::with_swap_duration(1), race(2))
            .optimize_swaps(&circuit, &graph)
            .expect("race");
        assert_eq!(out.outcome.best.result.swap_count(), 0);
        assert!(out.outcome.best.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.outcome.best.result), Ok(()));
    }

    #[test]
    fn proof_mode_seals_checkable_refutations() {
        let circuit = qaoa_circuit(4, 0xA5);
        let device = line(4);
        let config = SynthesisConfig {
            proof_log: true,
            ..SynthesisConfig::default()
        };
        let out = BoundScheduler::new(config, race(2))
            .optimize_depth(&circuit, &device)
            .expect("race");
        assert!(out.outcome.proven_optimal);
        assert!(out.sharing.is_none(), "proof mode must not share");
        let t_lb = olsq2_circuit::DependencyGraph::new(&circuit)
            .longest_chain()
            .max(1);
        if out.outcome.result.depth > t_lb {
            let proof = out.refutation.expect("sealed refutation owed");
            assert!(proof.claims_unsat());
            proof.check().expect("sealed refutation is RUP-checkable");
        } else {
            assert!(out.refutation.is_none(), "nothing was refuted");
        }
    }

    #[test]
    fn preset_stop_flag_aborts_the_race() {
        let circuit = triangle();
        let graph = line(3);
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.stop_flag = Some(Arc::new(AtomicBool::new(true)));
        match BoundScheduler::new(config, race(2)).optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn race_counters_and_gauge_reach_the_recorder() {
        let circuit = toffoli_circuit();
        let device = ibm_qx2();
        let mut config = SynthesisConfig::with_swap_duration(3);
        config.recorder = crate::Recorder::new();
        let rec = config.recorder.clone();
        let out = BoundScheduler::new(config, race(2))
            .optimize_depth(&circuit, &device)
            .expect("race");
        let snap = rec.snapshot();
        let total = out.probes.sat + out.probes.unsat + out.probes.cancelled + out.probes.unknown;
        if total > 0 {
            assert_eq!(
                snap.counters.get("bound.probes.sat").copied().unwrap_or(0),
                out.probes.sat
            );
            assert_eq!(
                snap.counters
                    .get("bound.probes.unsat")
                    .copied()
                    .unwrap_or(0),
                out.probes.unsat
            );
            // Converged race: the bracket closed.
            assert_eq!(snap.gauges.get("bound.bracket_width"), Some(&0));
        }
        assert!(snap.spans.iter().any(|s| s.name == "optimize_depth"
            && s.fields.iter().any(|(k, v)| k == "strategy"
                && matches!(v, olsq2_obs::FieldValue::Str(s) if s == "bound-race"))));
    }

    #[test]
    fn single_worker_race_reproduces_the_sequential_walk() {
        let circuit = qaoa_circuit(4, 0xA5);
        let device = line(4);
        let seq = Olsq2Synthesizer::new(SynthesisConfig::default())
            .optimize_swaps(&circuit, &device)
            .expect("sequential");
        let out = BoundScheduler::new(SynthesisConfig::default(), race(1))
            .optimize_swaps(&circuit, &device)
            .expect("race");
        assert_eq!(
            out.outcome.best.result.swap_count(),
            seq.best.result.swap_count()
        );
        assert_eq!(out.probes.speculative, 0, "one worker never speculates");
        assert!(out.sharing.is_none(), "one worker has no pool");
    }
}
