//! Set-up and one pass of a workload through the public entry points:
//! QASM text → `parse_qasm` → dependency DAG → synthesis → `verify` →
//! emitted physical QASM, with the output-correctness gate after each
//! request.

use crate::spec::{Spec, Workload};
use crate::stats::Outcome;
use olsq2::{Olsq2Synthesizer, Recorder, SynthesisConfig, SynthesisError, TbOlsq2Synthesizer};
use olsq2_arch::{device_by_name, CouplingGraph};
use olsq2_circuit::{parse_qasm, write_qasm, Circuit, DependencyGraph, Operands};
use olsq2_layout::{emit_physical_circuit, verify_with_dag, LayoutResult};
use olsq2_service::{
    CacheStats, JobStatus, Objective, ServiceConfig, SynthesisRequest, SynthesisService,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service workers on `service-mix`.
const SERVICE_WORKERS: usize = 2;

/// Everything that exists before the first request can be sent.
pub struct Prepared {
    /// Per request: its QASM text and the index of its device.
    pub inputs: Vec<(String, usize)>,
    /// The devices, each built once.
    pub devices: Vec<CouplingGraph>,
    /// The running service (`service-mix` only).
    pub service: Option<SynthesisService>,
}

/// Generates the circuits, serialises them to QASM, builds the devices
/// and, on `service-mix`, starts the service with an empty cache.
pub fn setup(workload: Workload, specs: &[Spec], recorder: &Recorder) -> Prepared {
    let span = recorder.span("setup");
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut devices = Vec::new();
    for spec in specs {
        if !names.contains_key(spec.device) {
            let _device = recorder.span("device");
            names.insert(spec.device, devices.len());
            devices.push(device_by_name(spec.device).expect("workload devices are known names"));
        }
    }
    let inputs = specs
        .iter()
        .map(|spec| {
            let device = names[spec.device];
            let circuit = {
                let _generate = recorder.span("generate");
                let circuit = spec.generator.circuit(&devices[device]);
                match &spec.relabel {
                    Some(perm) => circuit.permute_qubits(perm),
                    None => circuit,
                }
            };
            let _serialize = recorder.span("serialize");
            (write_qasm(&circuit), device)
        })
        .collect();
    let service = (workload == Workload::ServiceMix).then(|| {
        let _start = recorder.span("service_start");
        SynthesisService::start(ServiceConfig {
            workers: SERVICE_WORKERS,
            recorder: recorder.clone(),
            ..ServiceConfig::default()
        })
    });
    drop(span);
    Prepared {
        inputs,
        devices,
        service,
    }
}

/// What the service reported for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// Queue wait.
    pub wait: Duration,
    /// Worker time.
    pub service: Duration,
    /// Served from the result cache.
    pub cache_hit: bool,
}

/// One attempted request.
#[derive(Debug, Clone)]
pub struct Record {
    /// How it ended.
    pub outcome: Outcome,
    /// Parse to emit, as the client sees it.
    pub wall: Duration,
    /// Submit to terminal status on the service; the whole call otherwise.
    pub latency: Duration,
    /// The optimised objective, when a layout came back.
    pub objective: Option<usize>,
    /// Service-side times (`service-mix` only).
    pub job: Option<JobTimes>,
    /// Why the request counts as wrong.
    pub problem: Option<String>,
}

/// One pass over every request of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The requests sent.
    pub specs: Vec<Spec>,
    /// Per request, in spec order.
    pub records: Vec<Record>,
    /// First request sent to last reply.
    pub wall: Duration,
    /// Cache counters at the end of the pass (`service-mix` only).
    pub cache: Option<CacheStats>,
}

/// Sends every request of `specs` and checks every reply.
pub fn run_pass(specs: &[Spec], prepared: &Prepared, recorder: &Recorder) -> Pass {
    let start = Instant::now();
    let records = match &prepared.service {
        None => specs
            .iter()
            .zip(&prepared.inputs)
            .map(|(spec, (qasm, device))| {
                direct_request(spec, qasm, &prepared.devices[*device], recorder)
            })
            .collect(),
        Some(service) => service_requests(specs, prepared, service, recorder),
    };
    let wall = start.elapsed();
    let cache = prepared.service.as_ref().map(|s| s.metrics().cache);
    Pass {
        specs: specs.to_vec(),
        records,
        wall,
        cache,
    }
}

/// A closed-loop request calling the synthesizer directly.
fn direct_request(spec: &Spec, qasm: &str, device: &CouplingGraph, recorder: &Recorder) -> Record {
    let start = Instant::now();
    let request = recorder.span("request");
    request.set("name", spec.name());
    let front = match front_end(qasm, recorder) {
        Ok(front) => front,
        Err(problem) => return wrong(start, problem),
    };
    let mut config = SynthesisConfig::with_swap_duration(spec.swap_duration);
    config.time_budget = spec.budget;
    config.recorder = recorder.clone();
    let solved = {
        let _synthesize = recorder.span("synthesize");
        synthesize(spec.objective, config, &front.0, device)
    };
    let reply = match solved {
        Ok(reply) => reply,
        Err(e) => return no_layout(spec, start, start.elapsed(), e),
    };
    let record = back_end(spec, &front, device, reply, start, recorder);
    drop(request);
    record
}

/// The layout and its optimality flag.
type Reply = (LayoutResult, bool);

fn synthesize(
    objective: Objective,
    config: SynthesisConfig,
    circuit: &Circuit,
    device: &CouplingGraph,
) -> Result<Reply, SynthesisError> {
    match objective {
        Objective::Depth => Olsq2Synthesizer::new(config)
            .optimize_depth(circuit, device)
            .map(|o| (o.result, o.proven_optimal)),
        Objective::Swaps => Olsq2Synthesizer::new(config)
            .optimize_swaps(circuit, device)
            .map(|o| (o.best.result, o.best.proven_optimal)),
        Objective::TransitionSwaps => TbOlsq2Synthesizer::new(config)
            .optimize_swaps(circuit, device)
            .map(|o| (o.outcome.result, o.outcome.proven_optimal)),
    }
}

/// Parse and DAG: the parsed circuit and its dependency graph.
fn front_end(qasm: &str, recorder: &Recorder) -> Result<(Circuit, DependencyGraph), String> {
    let circuit = {
        let _parse = recorder.span("parse");
        parse_qasm(qasm).map_err(|e| format!("input QASM does not parse: {e}"))?
    };
    let _dag = recorder.span("dag");
    let dag = DependencyGraph::new(&circuit);
    std::hint::black_box(dag.longest_chain());
    Ok((circuit, dag))
}

/// Verify and emit, then the correctness gate (untimed).
fn back_end(
    spec: &Spec,
    (circuit, dag): &(Circuit, DependencyGraph),
    device: &CouplingGraph,
    (result, proven): Reply,
    start: Instant,
    recorder: &Recorder,
) -> Record {
    let verified = {
        let _verify = recorder.span("verify");
        verify_with_dag(circuit, device, &result, dag)
    };
    let emitted = {
        let _emit = recorder.span("emit");
        write_qasm(&emit_physical_circuit(circuit, device, &result))
    };
    let wall = start.elapsed();
    let objective = spec.objective_of(result.depth, result.swap_count());
    let checked = verified
        .map_err(|v| format!("verify failed: {v:?}"))
        .and_then(|()| check_emitted(&emitted, circuit, device, &result))
        .and_then(|()| check_optimum(spec, objective, proven, &result));
    let (outcome, problem) = match checked {
        Ok(()) if proven => (Outcome::Optimal, None),
        Ok(()) => (Outcome::Degraded, None),
        Err(problem) => (Outcome::Wrong, Some(problem)),
    };
    Record {
        outcome,
        wall,
        latency: wall,
        objective: Some(objective),
        job: None,
        problem,
    }
}

/// The emitted physical circuit re-parses, keeps every gate plus one per
/// SWAP, and puts every two-qubit gate on a device edge.
fn check_emitted(
    emitted: &str,
    circuit: &Circuit,
    device: &CouplingGraph,
    result: &LayoutResult,
) -> Result<(), String> {
    let physical =
        parse_qasm(emitted).map_err(|e| format!("emitted QASM does not re-parse: {e}"))?;
    let expected = circuit.num_gates() + result.swap_count();
    if physical.num_gates() != expected {
        return Err(format!(
            "emitted circuit has {} gates, expected {expected}",
            physical.num_gates()
        ));
    }
    for gate in physical.gates() {
        if let Operands::Two(a, b) = gate.operands {
            if !device.is_adjacent(a, b) {
                return Err(format!("emitted gate on ({a},{b}) is not a device edge"));
            }
        }
    }
    Ok(())
}

/// A proven optimum equals the expected one; an unproven layout never
/// beats it.
fn check_optimum(
    spec: &Spec,
    objective: usize,
    proven: bool,
    result: &LayoutResult,
) -> Result<(), String> {
    let expected = spec.expected_optimum();
    match expected {
        Some(e) if proven && objective != e => Err(format!(
            "{}: proven optimum {objective}, expected {e}",
            spec.key()
        )),
        Some(e) if objective < e => Err(format!(
            "{}: objective {objective} beats the known optimum {e}",
            spec.key()
        )),
        None if proven => Err(format!(
            "{}: no expected optimum in optima.txt (found {objective}, depth {}, swaps {})",
            spec.key(),
            result.depth,
            result.swap_count()
        )),
        _ => Ok(()),
    }
}

fn wrong(start: Instant, problem: String) -> Record {
    Record {
        outcome: Outcome::Wrong,
        wall: start.elapsed(),
        latency: start.elapsed(),
        objective: None,
        job: None,
        problem: Some(problem),
    }
}

/// No layout: expected only when the request's budget ran out.
fn no_layout(spec: &Spec, start: Instant, latency: Duration, error: SynthesisError) -> Record {
    let budgeted = spec.budget.is_some() && error == SynthesisError::BudgetExhausted;
    Record {
        outcome: if budgeted {
            Outcome::NoLayout
        } else {
            Outcome::Wrong
        },
        wall: start.elapsed(),
        latency,
        objective: None,
        job: None,
        problem: (!budgeted).then(|| format!("{}: {error}", spec.key())),
    }
}

/// Completion flags, so a twin is sent only after its original finished.
struct Done {
    flags: Mutex<Vec<bool>>,
    changed: Condvar,
}

/// `service-mix`: clients pull the next request from one shared list,
/// each keeping one request outstanding.
fn service_requests(
    specs: &[Spec],
    prepared: &Prepared,
    service: &SynthesisService,
    recorder: &Recorder,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let done = Done {
        flags: Mutex::new(vec![false; specs.len()]),
        changed: Condvar::new(),
    };
    let records: Mutex<Vec<Option<Record>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..Workload::ServiceMix.clients() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                if let Some(original) = spec.twin_of {
                    let flags = done.flags.lock().expect("done flags lock");
                    drop(
                        done.changed
                            .wait_while(flags, |f| !f[original])
                            .expect("done flags lock"),
                    );
                }
                let (qasm, device) = &prepared.inputs[i];
                let record =
                    service_request(spec, qasm, &prepared.devices[*device], service, recorder);
                records.lock().expect("records lock")[i] = Some(record);
                done.flags.lock().expect("done flags lock")[i] = true;
                done.changed.notify_all();
            });
        }
    });
    records
        .into_inner()
        .expect("records lock")
        .into_iter()
        .map(|r| r.expect("every request ran"))
        .collect()
}

fn service_request(
    spec: &Spec,
    qasm: &str,
    device: &CouplingGraph,
    service: &SynthesisService,
    recorder: &Recorder,
) -> Record {
    let start = Instant::now();
    let request = recorder.span("request");
    request.set("name", spec.name());
    let front = match front_end(qasm, recorder) {
        Ok(front) => front,
        Err(problem) => return wrong(start, problem),
    };
    let mut job =
        SynthesisRequest::new(spec.name(), front.0.clone(), device.clone(), spec.objective);
    job.config = SynthesisConfig::with_swap_duration(spec.swap_duration);
    job.deadline = spec.budget;
    let sent = Instant::now();
    let handle = {
        let _submit = recorder.span("submit");
        service.submit(job)
    };
    let handle = match handle {
        Ok(handle) => handle,
        Err(_) => {
            return Record {
                outcome: Outcome::Rejected,
                wall: start.elapsed(),
                latency: sent.elapsed(),
                objective: None,
                job: None,
                problem: None,
            }
        }
    };
    let status = {
        let _wait = recorder.span("wait");
        handle.wait()
    };
    let latency = sent.elapsed();
    let output = match status {
        JobStatus::Done(output) => output,
        JobStatus::Failed(e) => return no_layout(spec, start, latency, e),
        other => return wrong(start, format!("{}: job ended {other:?}", spec.key())),
    };
    let times = JobTimes {
        wait: output.wait,
        service: output.service_time,
        cache_hit: output.cache_hit,
    };
    let mut record = back_end(
        spec,
        &front,
        device,
        (output.result, output.proven_optimal),
        start,
        recorder,
    );
    drop(request);
    record.latency = latency;
    record.job = Some(times);
    record
}
