//! The three workloads as lists of request specifications, drawn from the
//! seed, and the optimum each request is expected to reach.

use olsq2_arch::CouplingGraph;
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit, tof_circuit};
use olsq2_circuit::Circuit;
use olsq2_prng::Rng;
use olsq2_service::Objective;
use std::time::Duration;

/// The generator seed of every pinned QAOA and QUEKO instance.
const PINNED_SEED: u64 = 42;

/// Budget of the one budgeted `device-depth` request.
const EAGLE_BUDGET: Duration = Duration::from_secs(5);

/// QUEKO circuits in the `service-mix` pool.
const SERVICE_QUEKO: usize = 100;

/// Fresh `service-mix` requests sent between a request and its twin, at
/// least.
const TWIN_GAP: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `optimize_swaps` on four small instances, one closed-loop client.
    SwapDescent,
    /// `optimize_depth` on the paper's devices, one closed-loop client.
    DeviceDepth,
    /// Short mixed jobs through `SynthesisService`, two closed-loop clients.
    ServiceMix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "swap-descent" => Some(Workload::SwapDescent),
            "device-depth" => Some(Workload::DeviceDepth),
            "service-mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwapDescent => "swap-descent",
            Workload::DeviceDepth => "device-depth",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// The requests of one pass, in the order they are sent.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        let mut rng = Rng::seed_from_u64(seed);
        match self {
            Workload::SwapDescent => {
                let mut specs = vec![
                    Spec::new(Generator::qaoa(4), "line4", Objective::Swaps, 3),
                    Spec::new(Generator::qaoa(6), "grid2x3", Objective::Swaps, 3),
                    Spec::new(Generator::Qft { qubits: 4 }, "line4", Objective::Swaps, 3),
                    Spec::new(Generator::Tof { controls: 3 }, "line5", Objective::Swaps, 3),
                ];
                rng.shuffle(&mut specs);
                specs
            }
            Workload::DeviceDepth => {
                let mut specs: Vec<Spec> = [5, 10, 15]
                    .into_iter()
                    .map(|depth| {
                        let queko = Generator::Queko {
                            depth,
                            gates: 4 * depth,
                            seed: PINNED_SEED,
                        };
                        Spec::new(queko, "aspen4", Objective::Depth, 3)
                    })
                    .collect();
                for (qubits, device) in [(8, "sycamore"), (12, "sycamore"), (6, "eagle")] {
                    specs.push(Spec::new(
                        Generator::qaoa(qubits),
                        device,
                        Objective::Depth,
                        1,
                    ));
                }
                let mut budgeted = Spec::new(Generator::qaoa(8), "eagle", Objective::Depth, 3);
                budgeted.budget = Some(EAGLE_BUDGET);
                specs.push(budgeted);
                rng.shuffle(&mut specs);
                specs
            }
            Workload::ServiceMix => service_mix(&mut rng),
        }
    }

    /// Closed-loop clients sending requests.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServiceMix => 2,
            _ => 1,
        }
    }
}

/// `service-mix`: a fixed pool of small instances, each sent once fresh;
/// two in three of them are sent again later as a relabeled twin, which
/// the cache serves. The seed draws the order, which requests get twins,
/// the twins' positions and their relabelings; the pool itself is pinned
/// because the solve time of a generated circuit varies with its
/// generator seed.
fn service_mix(rng: &mut Rng) -> Vec<Spec> {
    use Objective::{Depth, Swaps, TransitionSwaps as Tb};
    let mut fresh = Vec::new();
    for device in ["line4", "grid2x3", "qx2"] {
        for objective in [Depth, Swaps, Tb] {
            fresh.push(Spec::new(Generator::qaoa(4), device, objective, 1));
        }
    }
    for seed in [1, 2, 3, 4, 5, PINNED_SEED] {
        for device in ["grid2x3", "grid3x3"] {
            for objective in [Depth, Tb] {
                if (seed, device, objective) != (1, "grid3x3", Tb) {
                    let qaoa = Generator::Qaoa { qubits: 6, seed };
                    fresh.push(Spec::new(qaoa, device, objective, 1));
                }
            }
        }
    }
    for seed in [2, PINNED_SEED] {
        let qaoa = Generator::Qaoa { qubits: 6, seed };
        fresh.push(Spec::new(qaoa, "grid2x3", Swaps, 1));
    }
    for device in ["line4", "grid2x3", "qx2"] {
        for objective in [Depth, Tb] {
            fresh.push(Spec::new(
                Generator::Qft { qubits: 4 },
                device,
                objective,
                3,
            ));
        }
    }
    for (device, objective) in [("qx2", Depth), ("qx2", Tb), ("grid2x3", Tb)] {
        fresh.push(Spec::new(
            Generator::Tof { controls: 3 },
            device,
            objective,
            3,
        ));
    }
    let devices = ["line4", "grid2x3", "grid3x3", "qx2"];
    let objectives = [Depth, Swaps, Tb];
    for i in 0..SERVICE_QUEKO {
        let depth = 3 + i % 3;
        let queko = Generator::Queko {
            depth,
            gates: 4 * depth,
            seed: i as u64 + 1,
        };
        fresh.push(Spec::new(
            queko,
            devices[i % devices.len()],
            objectives[i % objectives.len()],
            1,
        ));
    }
    // Two in three pool entries get a twin, the same ones for every seed.
    let mut fresh: Vec<(Spec, bool)> = fresh
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (spec, i % 3 != 2))
        .collect();
    rng.shuffle(&mut fresh);

    // Twins go at least `TWIN_GAP` fresh requests after their original,
    // so a client seldom waits for an original still being solved.
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); fresh.len() + 1];
    for (f, _) in fresh.iter().enumerate().filter(|(_, (_, twin))| *twin) {
        let earliest = (f + TWIN_GAP).min(fresh.len());
        slots[rng.gen_range(earliest..fresh.len() + 1)].push(f);
    }
    let mut specs: Vec<Spec> = Vec::new();
    let mut position = vec![0; fresh.len()];
    for (f, slot) in slots.iter().enumerate() {
        for &original in slot {
            let twin = fresh[original].0.twin(position[original], rng);
            specs.push(twin);
        }
        if let Some((spec, _)) = fresh.get(f) {
            position[f] = specs.len();
            specs.push(spec.clone());
        }
    }
    specs
}

/// A circuit generator with its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Generator {
    /// `qaoa_circuit(qubits, seed)`.
    Qaoa {
        /// Program qubits.
        qubits: usize,
        /// Graph seed.
        seed: u64,
    },
    /// `qft_decomposed(qubits)`.
    Qft {
        /// Program qubits.
        qubits: usize,
    },
    /// `tof_circuit(controls)`.
    Tof {
        /// Control qubits.
        controls: usize,
    },
    /// `queko_circuit` on the request's device: optimal depth `depth` by
    /// construction, with a zero-SWAP layout.
    Queko {
        /// Construction depth.
        depth: usize,
        /// Target gate count.
        gates: usize,
        /// Construction seed.
        seed: u64,
    },
}

impl Generator {
    fn qaoa(qubits: usize) -> Generator {
        Generator::Qaoa {
            qubits,
            seed: PINNED_SEED,
        }
    }

    /// Stable identifier used in request names and the optima table.
    pub fn id(&self) -> String {
        match self {
            Generator::Qaoa { qubits, seed } => format!("qaoa-{qubits}.s{seed}"),
            Generator::Qft { qubits } => format!("qft-{qubits}"),
            Generator::Tof { controls } => format!("tof-{controls}"),
            Generator::Queko { depth, gates, seed } => format!("queko-{depth}x{gates}.s{seed}"),
        }
    }

    /// Generates the circuit for `device`.
    pub fn circuit(&self, device: &CouplingGraph) -> Circuit {
        match *self {
            Generator::Qaoa { qubits, seed } => qaoa_circuit(qubits, seed),
            Generator::Qft { qubits } => qft_decomposed(qubits),
            Generator::Tof { controls } => tof_circuit(controls),
            Generator::Queko { depth, gates, seed } => {
                queko_circuit(device.num_qubits(), device.edges(), depth, gates, seed).circuit
            }
        }
    }
}

/// One request of a pass.
#[derive(Debug, Clone)]
pub struct Spec {
    /// How the circuit is generated.
    pub generator: Generator,
    /// Device name for `device_by_name`.
    pub device: &'static str,
    /// What is optimized.
    pub objective: Objective,
    /// SWAP duration S_D.
    pub swap_duration: usize,
    /// Time budget, if any.
    pub budget: Option<Duration>,
    /// Logical-qubit relabeling applied after generation.
    pub relabel: Option<Vec<u16>>,
    /// Index of the request this one is a relabeled twin of; it is sent
    /// only after that request completed.
    pub twin_of: Option<usize>,
}

impl Spec {
    fn new(
        generator: Generator,
        device: &'static str,
        objective: Objective,
        swap_duration: usize,
    ) -> Spec {
        Spec {
            generator,
            device,
            objective,
            swap_duration,
            budget: None,
            relabel: None,
            twin_of: None,
        }
    }

    /// A copy with a random qubit relabeling, following request `original`.
    fn twin(&self, original: usize, rng: &mut Rng) -> Spec {
        let qubits = match self.generator {
            Generator::Qaoa { qubits, .. } | Generator::Qft { qubits } => qubits,
            Generator::Tof { controls } => 2 * controls - 1,
            Generator::Queko { .. } => device_qubits(self.device),
        };
        let mut perm: Vec<u16> = (0..qubits as u16).collect();
        rng.shuffle(&mut perm);
        Spec {
            relabel: Some(perm),
            twin_of: Some(original),
            ..self.clone()
        }
    }

    /// The key of the optima table: the same for a request and its twins,
    /// since relabeling program qubits leaves the optimum unchanged.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/sd{}",
            self.generator.id(),
            self.device,
            self.objective.name(),
            self.swap_duration
        )
    }

    /// Display name; twins are marked.
    pub fn name(&self) -> String {
        match self.twin_of {
            Some(i) => format!("{}~twin-of-{i}", self.key()),
            None => self.key(),
        }
    }

    /// The objective value of a layout for this request.
    pub fn objective_of(&self, depth: usize, swaps: usize) -> usize {
        match self.objective {
            Objective::Depth => depth,
            Objective::Swaps | Objective::TransitionSwaps => swaps,
        }
    }

    /// The optimum this request must reach: by construction for QUEKO
    /// (the construction depth, and no SWAP), else from the table.
    pub fn expected_optimum(&self) -> Option<usize> {
        if let Generator::Queko { depth, .. } = self.generator {
            return Some(self.objective_of(depth, 0));
        }
        lookup_optimum(OPTIMA, &self.key())
    }
}

/// Physical qubits of a named device; the twin relabeling of a QUEKO
/// circuit needs it because QUEKO circuits span the whole device.
fn device_qubits(device: &str) -> usize {
    olsq2_arch::device_by_name(device)
        .expect("workload devices are known names")
        .num_qubits()
}

/// The expected-optima table, `key optimum` per line.
const OPTIMA: &str = include_str!("../optima.txt");

fn lookup_optimum(table: &str, key: &str) -> Option<usize> {
    table
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .find_map(|line| {
            let (k, v) = line.split_once(char::is_whitespace)?;
            (k == key).then(|| v.trim().parse().ok()).flatten()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in [
            Workload::SwapDescent,
            Workload::DeviceDepth,
            Workload::ServiceMix,
        ] {
            let a: Vec<String> = w.specs(7).iter().map(Spec::name).collect();
            let b: Vec<String> = w.specs(7).iter().map(Spec::name).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn service_twins_follow_their_originals() {
        let specs = Workload::ServiceMix.specs(3);
        assert!(specs.len() >= 150);
        let twins = specs.iter().filter(|s| s.twin_of.is_some()).count();
        let fresh = specs.len() - twins;
        assert_eq!(twins, fresh - fresh / 3);
        for (i, s) in specs.iter().enumerate() {
            if let Some(o) = s.twin_of {
                assert!(o < i);
                assert!(specs[o].twin_of.is_none());
                assert_eq!(specs[o].key(), s.key());
            }
        }
    }

    #[test]
    fn every_pinned_request_has_an_expected_optimum() {
        for w in [
            Workload::SwapDescent,
            Workload::DeviceDepth,
            Workload::ServiceMix,
        ] {
            for s in w.specs(42) {
                assert!(
                    s.budget.is_some() || s.expected_optimum().is_some(),
                    "{} has no expected optimum",
                    s.key()
                );
            }
        }
    }

    #[test]
    fn service_pool_entries_are_distinct_cache_keys() {
        let mut seen = std::collections::HashMap::new();
        let mut shared = Vec::new();
        for spec in Workload::ServiceMix.specs(1) {
            if spec.twin_of.is_some() {
                continue;
            }
            let device = olsq2_arch::device_by_name(spec.device).expect("known device");
            let circuit = spec.generator.circuit(&device);
            let config = olsq2::SynthesisConfig::with_swap_duration(spec.swap_duration);
            let key =
                olsq2_service::cache::canonicalize(&circuit, &device, &config, spec.objective).key;
            if let Some(other) = seen.insert(key, spec.key()) {
                shared.push(format!("{other} = {}", spec.key()));
            }
        }
        assert!(shared.is_empty(), "entries share a cache key: {shared:?}");
    }

    #[test]
    fn table_lookup() {
        let table = "# comment\nqft-4/line4/swaps/sd3 3\n\ntof-3/line5/swaps/sd3\t4\n";
        assert_eq!(lookup_optimum(table, "qft-4/line4/swaps/sd3"), Some(3));
        assert_eq!(lookup_optimum(table, "tof-3/line5/swaps/sd3"), Some(4));
        assert_eq!(lookup_optimum(table, "tof-3/line4/swaps/sd3"), None);
    }
}
