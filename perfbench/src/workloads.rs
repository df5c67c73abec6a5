//! The three benchmark workloads: their queries, sizes and devices, all
//! generated from the `--seed` argument, plus the timed set-up that builds
//! them and evaluates the CPU oracle.

use std::time::Instant;

use kw_bench::experiments::out_of_core::{aggregate_workload, capacity_for};
use kw_gpu_sim::DeviceConfig;
use kw_relational::Relation;
use kw_tpch::{Pattern, Workload};

use crate::oracle;

/// Tuples per input relation of the resident-scan micro patterns. Every
/// size and scale factor below shrinks by up to 1% with the seed (see
/// [`size_factor`]).
const RESIDENT_TUPLES: usize = 1 << 20;
/// TPC-H scale factor of the resident-scan queries.
const RESIDENT_TPCH_SCALE: f64 = 32.0;
/// TPC-H scale factor of the service-mix shapes.
const SERVICE_TPCH_SCALE: f64 = 0.1;
/// Tuples per input relation of the service-mix micro patterns.
const SERVICE_PATTERN_TUPLES: usize = 1_000;
/// Tuples per input relation of the out-of-core queries.
const OUT_OF_CORE_TUPLES: usize = 1 << 20;
/// A timed set-up runs at least this many times and until this many seconds
/// have passed (small set-ups repeat more); `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client, fused Resident execution of large inputs.
    ResidentScan,
    /// Open loop on the simulated clock through `run_service`.
    ServiceMix,
    /// Closed loop, one client, `execute_resilient` on devices smaller
    /// than the inputs.
    OutOfCore,
}

impl Kind {
    /// Every workload, in the order the traced run takes the layers a
    /// workload does not call from the others.
    pub const ALL: [Kind; 3] = [Kind::ResidentScan, Kind::OutOfCore, Kind::ServiceMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ResidentScan => "resident-scan",
            Kind::ServiceMix => "service-mix",
            Kind::OutOfCore => "out-of-core",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One query of a workload with its oracle answer.
pub struct Query {
    pub workload: Workload,
    /// The CPU oracle's outputs, compared byte for byte with every run.
    pub expected: oracle::Outputs,
    /// Input tuples the query reads.
    pub tuples: u64,
    /// The device the query runs on.
    pub device: DeviceConfig,
}

impl Query {
    pub fn bindings(&self) -> Vec<(&str, &Relation)> {
        self.workload.bindings()
    }
}

/// A per-purpose seed derived from the run seed (splitmix64 finalizer), so
/// every relation and arrival stream differs between seeds and between the
/// queries of one seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed's input-size factor in (0.99, 1]. Simulated times depend on
/// input sizes, not on values, so without it most simulated metrics would
/// read the same for every seed.
fn size_factor(seed: u64) -> f64 {
    1.0 - (sub_seed(seed, 99) % 1000) as f64 * 1e-5
}

fn generate(kind: Kind, seed: u64) -> Vec<Workload> {
    let s = |i: u64| sub_seed(seed, i);
    let f = size_factor(seed);
    let n = |tuples: usize| (tuples as f64 * f) as usize;
    let tpch = |scale: f64| {
        vec![
            kw_tpch::q1(scale * f, s(10)),
            kw_tpch::q3(scale * f, s(11)),
            kw_tpch::q6(scale * f, s(12)),
            kw_tpch::q21(scale * f, s(13)),
        ]
    };
    let patterns = |ps: &[Pattern], tuples: usize| -> Vec<Workload> {
        ps.iter()
            .zip(0..)
            .map(|(p, i)| p.build(n(tuples), s(i)))
            .collect()
    };
    match kind {
        Kind::ResidentScan => {
            let mut w = patterns(&Pattern::all(), RESIDENT_TUPLES);
            w.extend(tpch(RESIDENT_TPCH_SCALE));
            w
        }
        Kind::ServiceMix => {
            let mut w = tpch(SERVICE_TPCH_SCALE);
            w.extend(patterns(
                &[Pattern::A, Pattern::C, Pattern::E],
                SERVICE_PATTERN_TUPLES,
            ));
            w
        }
        // (a) rides along so the mix has an odd number of queries: with an
        // even number the closed loop's p50 falls between two queries' time
        // bands and swings with their noise.
        Kind::OutOfCore => {
            let mut w = patterns(
                &[Pattern::A, Pattern::B, Pattern::C, Pattern::D],
                OUT_OF_CORE_TUPLES,
            );
            w.push(aggregate_workload(n(OUT_OF_CORE_TUPLES), s(5)));
            w
        }
    }
}

/// Generate the workload and evaluate the oracle for every query.
fn setup_once(kind: Kind, seed: u64) -> Result<Vec<(Workload, oracle::Outputs)>, String> {
    generate(kind, seed)
        .into_iter()
        .map(|w| {
            let expected =
                oracle::evaluate(&w.plan, &w.bindings()).map_err(|e| format!("{}: {e}", w.name))?;
            Ok((w, expected))
        })
        .collect()
}

/// Run the set-up once, or when `timed` as often as [`SETUP_REPS`] and
/// [`SETUP_MIN_SECONDS`] ask; returns the median set-up seconds and the last
/// set-up's queries. Device sizing for out-of-core (which compiles and
/// admits each plan) happens after the timed set-ups.
pub fn setup(kind: Kind, seed: u64, timed: bool) -> Result<(f64, Vec<Query>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut built = Vec::new();
    while times.is_empty()
        || (timed && (times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS))
    {
        drop(std::mem::take(&mut built));
        let t = Instant::now();
        built = setup_once(kind, seed)?;
        times.push(t.elapsed().as_secs_f64());
    }
    let queries = built
        .into_iter()
        .map(|(workload, expected)| {
            let device = match kind {
                Kind::OutOfCore => DeviceConfig {
                    global_mem_bytes: capacity_for(&workload),
                    ..DeviceConfig::fermi_c2050()
                },
                Kind::ResidentScan | Kind::ServiceMix => DeviceConfig::fermi_c2050(),
            };
            let tuples = workload.data.iter().map(|(_, r)| r.len() as u64).sum();
            Query {
                workload,
                expected,
                tuples,
                device,
            }
        })
        .collect();
    eprintln!("set-up ran {} times", times.len());
    Ok((crate::stats::median(&times), queries))
}
