//! Calls into the program's public entry points, shared by the untraced
//! and the traced runs, and the output checks applied to every call.

use std::time::{Duration, Instant};

use kw_core::{
    execute_plan, execute_resilient, run_service, BatchQuery, PlanReport, RetryPolicy,
    ServiceConfig, ServiceReport, WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_relational::Relation;

use crate::oracle;
use crate::workloads::{sub_seed, Kind, Query};

/// Offered rates of the service-mix knee ladder, arrivals per simulated
/// second. Fixed absolute values: a change to the program must not move
/// its own yardstick.
pub const LADDER_QPS: [f64; 8] = [
    500.0, 2000.0, 4000.0, 6000.0, 7000.0, 9000.0, 12000.0, 16000.0,
];
/// Rate well under the knee.
pub const RATE_LO_QPS: f64 = 500.0;
/// Rate just under the knee.
pub const RATE_HI_QPS: f64 = 6000.0;
/// The simulated latency objective on total (queueing + execution) p99.
pub const SLO_P99_SECONDS: f64 = 10e-3;
/// A rung has no growing backlog when the last arrival comes at least this
/// share of the service span after the start, i.e. the queue left at the
/// last arrival drains in under 5% of the session.
pub const BACKLOG_MIN_RATIO: f64 = 0.95;
/// Arrivals per service session.
pub const ARRIVALS: usize = 1_000;
/// Sessions per ladder rung, each with its own arrival stream; a rung's
/// latency percentiles pool all of them. The two reported rates run twice
/// as many, which steadies their p99 and puts the host-time p50 and p90 of
/// the session mix inside one rate's band rather than between two.
fn sessions_per_rate(qps: f64) -> u64 {
    if qps == RATE_LO_QPS || qps == RATE_HI_QPS {
        8
    } else {
        4
    }
}

/// One solo query execution on a fresh device: `execute_plan` for
/// resident-scan, `execute_resilient` for out-of-core.
pub fn run_solo(kind: Kind, q: &Query) -> (Duration, kw_core::Result<PlanReport>, Device) {
    let bindings = q.bindings();
    let plan = &q.workload.plan;
    let config = WeaverConfig::default();
    let mut device = Device::new(q.device.clone());
    let t = Instant::now();
    let report = match kind {
        Kind::OutOfCore => execute_resilient(
            plan,
            &bindings,
            &mut device,
            &config,
            &RetryPolicy::default(),
        ),
        Kind::ResidentScan | Kind::ServiceMix => {
            execute_plan(plan, &bindings, &mut device, &config)
        }
    };
    (t.elapsed(), report, device)
}

/// Why a solo run is wrong, if it is: an error, outputs that differ from
/// the oracle, or device bytes left allocated.
pub fn solo_failure(
    q: &Query,
    report: &kw_core::Result<PlanReport>,
    device: &Device,
) -> Option<String> {
    let name = &q.workload.name;
    match report {
        Err(e) => Some(format!("{name}: {e}")),
        Ok(r) if !oracle::identical(&r.outputs, &q.expected) => {
            Some(format!("{name}: outputs differ from the CPU oracle"))
        }
        Ok(_) if device.memory().in_use() != 0 => Some(format!(
            "{name}: {} device bytes leaked",
            device.memory().in_use()
        )),
        Ok(_) => None,
    }
}

/// The service-mix plan shapes, borrowed from the queries.
pub struct Shapes<'a> {
    bindings: Vec<Vec<(&'a str, &'a Relation)>>,
    queries: &'a [Query],
}

impl<'a> Shapes<'a> {
    pub fn new(queries: &'a [Query]) -> Shapes<'a> {
        Shapes {
            bindings: queries.iter().map(Query::bindings).collect(),
            queries,
        }
    }

    pub fn batch_queries(&self) -> Vec<BatchQuery<'_>> {
        self.queries
            .iter()
            .zip(&self.bindings)
            .map(|(q, b)| BatchQuery {
                name: &q.workload.name,
                plan: &q.workload.plan,
                bindings: b,
            })
            .collect()
    }

    /// Input tuples of arrival `i` (arrivals cycle through the shapes).
    pub fn arrival_tuples(&self, i: usize) -> u64 {
        self.queries[i % self.queries.len()].tuples
    }
}

/// One service session: a fixed rate and arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub qps: f64,
    pub arrivals: usize,
    /// Index of the arrival stream; streams are shared across rates.
    pub stream: u64,
}

impl Session {
    pub fn config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            offered_qps: self.qps,
            arrivals: self.arrivals,
            seed: sub_seed(seed, 1000 + self.stream),
            slo_p99_seconds: SLO_P99_SECONDS,
            ..ServiceConfig::default()
        }
    }
}

/// Run one `run_service` session on a fresh device.
pub fn run_session(
    shapes: &Shapes<'_>,
    session: Session,
    seed: u64,
) -> (Duration, kw_core::Result<ServiceReport>, Device) {
    let batch = shapes.batch_queries();
    let mut device = Device::new(DeviceConfig::fermi_c2050());
    let config = session.config(seed);
    let t = Instant::now();
    let report = run_service(&batch, &mut device, &WeaverConfig::default(), &config);
    (t.elapsed(), report, device)
}

/// How many arrivals of a session are wrong, and why: an error or leaked
/// device bytes fail all of them, otherwise those that did not complete.
/// A plan-cache lookup count other than one per arrival also fails all.
/// `run_service` returns no outputs; the shapes are checked solo in set-up.
pub fn session_failure(
    session: Session,
    report: &kw_core::Result<ServiceReport>,
    device: &Device,
) -> Option<(u64, String)> {
    let at = format!("session at {} qps, stream {}", session.qps, session.stream);
    let all = session.arrivals as u64;
    match report {
        Err(e) => Some((all, format!("{at}: {e}"))),
        Ok(_) if device.memory().in_use() != 0 => Some((
            all,
            format!("{at}: {} device bytes leaked", device.memory().in_use()),
        )),
        Ok(r) if r.cache_hits + r.cache_misses != all => {
            Some((all, format!("{at}: plan-cache lookups != arrivals")))
        }
        Ok(r) if r.completed != session.arrivals => Some((
            all - r.completed as u64,
            format!("{at}: {} of {all} arrivals completed", r.completed),
        )),
        Ok(_) => None,
    }
}

/// The sessions of one pass over the knee ladder, stream by stream, so that
/// each rate's sessions spread over the whole pass and a change of the
/// machine's speed during the pass does not fall on one rate's host times.
pub fn ladder() -> Vec<Session> {
    let streams = LADDER_QPS
        .map(sessions_per_rate)
        .into_iter()
        .max()
        .unwrap_or(0);
    (0..streams)
        .flat_map(|stream| {
            LADDER_QPS
                .into_iter()
                .filter(move |&qps| stream < sessions_per_rate(qps))
                .map(move |qps| Session {
                    qps,
                    arrivals: ARRIVALS,
                    stream,
                })
        })
        .collect()
}
