//! The untraced run: end-to-end metrics on both clocks.

use std::time::Instant;

use crate::exec::{self, Session, Shapes, RATE_HI_QPS, RATE_LO_QPS};
use crate::report::Report;
use crate::stats::{peak_rss_mb, percentile};
use crate::workloads::{Kind, Query};
use crate::Args;

const MB: f64 = 1e6;

pub fn run(args: &Args, setup_s: f64, queries: &[Query]) -> Result<Report, String> {
    let mut report = Report::default();
    match args.kind {
        Kind::ResidentScan | Kind::OutOfCore => closed_loop(args, queries, &mut report),
        Kind::ServiceMix => service(args, queries, &mut report),
    }
    report.metric("host_peak_rss_mb", peak_rss_mb()?, "MB");
    report.metric("setup_s", setup_s, "s");
    report.metric("ok_frac", report.ok_frac(), "frac");
    Ok(report)
}

/// Simulated results of one solo execution, which must repeat bit for bit.
#[derive(Clone, Copy, PartialEq)]
struct SimResult {
    seconds: f64,
    peak_bytes: u64,
}

/// Host time of a closed loop's timed rounds.
#[derive(Default)]
struct HostSamples {
    ms: Vec<f64>,
    seconds: f64,
    tuples: u64,
}

/// Run every query once and check it; `sim` is filled by the first round
/// and compared with every later one.
fn closed_round(
    kind: Kind,
    queries: &[Query],
    report: &mut Report,
    sim: &mut Vec<SimResult>,
    host: &mut HostSamples,
) {
    let first = sim.is_empty();
    for (i, q) in queries.iter().enumerate() {
        let (elapsed, result, device) = exec::run_solo(kind, q);
        let mut failure = exec::solo_failure(q, &result, &device);
        if let Ok(r) = &result {
            let got = SimResult {
                seconds: r.total_seconds,
                peak_bytes: device.memory().peak(),
            };
            if first {
                sim.push(got);
            } else if sim[i] != got {
                failure.get_or_insert(format!(
                    "{}: simulated result changed between rounds",
                    q.workload.name
                ));
            }
        }
        report.check(failure);
        host.ms.push(elapsed.as_secs_f64() * 1e3);
        host.seconds += elapsed.as_secs_f64();
        host.tuples += q.tuples;
    }
}

/// Fewest timed calls of a closed loop: with nearest-rank percentiles, 100
/// samples leave 10 beyond p90.
const MIN_HOST_SAMPLES: usize = 100;

/// One client: each query starts when the previous one has returned. A
/// warm-up round fixes the simulated results; whole timed rounds follow
/// while the next one fits in `--seconds`, and until there are
/// [`MIN_HOST_SAMPLES`].
fn closed_loop(args: &Args, queries: &[Query], report: &mut Report) {
    let mut sim = Vec::new();
    closed_round(
        args.kind,
        queries,
        report,
        &mut sim,
        &mut HostSamples::default(),
    );
    let mut host = HostSamples::default();
    let start = Instant::now();
    let mut rounds = 0u32;
    let mut round_ms = Vec::new();
    loop {
        let before = host.seconds;
        closed_round(args.kind, queries, report, &mut sim, &mut host);
        round_ms.push(format!("{:.0}", (host.seconds - before) * 1e3));
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if host.ms.len() >= MIN_HOST_SAMPLES
            && elapsed * f64::from(rounds + 1) / f64::from(rounds) > args.seconds
        {
            break;
        }
    }
    eprintln!(
        "{rounds} timed rounds, {} host samples; round ms: {}",
        host.ms.len(),
        round_ms.join(" ")
    );
    for (i, q) in queries.iter().enumerate() {
        let own: Vec<f64> = host
            .ms
            .iter()
            .skip(i)
            .step_by(queries.len())
            .copied()
            .collect();
        eprintln!(
            "  {:16} host median {:9.3} ms  sim {:8.4} ms",
            q.workload.name,
            crate::stats::median(&own),
            sim[i].seconds * 1e3
        );
    }

    let tuples: u64 = queries.iter().map(|q| q.tuples).sum();
    let sim_seconds: Vec<f64> = sim.iter().map(|s| s.seconds).collect();
    let peak = sim.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    report.metric("host_query_ms_p50", percentile(&host.ms, 0.5), "ms");
    report.metric("host_query_ms_p90", percentile(&host.ms, 0.9), "ms");
    report.metric(
        "host_tuples_per_s",
        host.tuples as f64 / host.seconds,
        "1/s",
    );
    report.metric(
        "sim_query_ms_p50",
        percentile(&sim_seconds, 0.5) * 1e3,
        "ms",
    );
    report.metric(
        "sim_query_ms_p90",
        percentile(&sim_seconds, 0.9) * 1e3,
        "ms",
    );
    report.metric(
        "sim_tuples_per_s",
        tuples as f64 / sim_seconds.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("sim_peak_device_mb", peak as f64 / MB, "MB");
}

/// Simulated results of one service session, which must repeat bit for bit.
#[derive(Clone, PartialEq)]
pub struct SessionSim {
    totals: Vec<f64>,
    busy_seconds: f64,
    duration_seconds: f64,
    last_arrival_seconds: f64,
    peak_bytes: u64,
}

/// One pass over the knee ladder, every session run on a fresh device and
/// checked. Returns each session's host seconds and, when every session
/// completed, their simulated results.
pub fn ladder_pass(
    shapes: &Shapes<'_>,
    seed: u64,
    report: &mut Report,
) -> (Vec<f64>, Option<Vec<SessionSim>>) {
    let mut host = Vec::new();
    let mut sims = Vec::new();
    let mut complete = true;
    for session in exec::ladder() {
        let (elapsed, result, device) = exec::run_session(shapes, session, seed);
        let failure = exec::session_failure(session, &result, &device);
        complete &= failure.is_none();
        if let Ok(r) = &result {
            sims.push(SessionSim {
                totals: r.queries.iter().map(|q| q.total_seconds).collect(),
                busy_seconds: r.busy_seconds,
                duration_seconds: r.duration_seconds,
                last_arrival_seconds: r.queries.last().map_or(0.0, |q| q.arrival_seconds),
                peak_bytes: device.memory().peak(),
            });
        }
        report.tally(session.arrivals as u64, failure);
        host.push(elapsed.as_secs_f64());
    }
    (host, complete.then_some(sims))
}

/// Total latencies of every arrival of the ladder's sessions at `qps`.
fn pooled(sims: &[SessionSim], qps: f64) -> Vec<f64> {
    exec::ladder()
        .iter()
        .zip(sims)
        .filter(|(s, _)| s.qps == qps)
        .flat_map(|(_, sim)| sim.totals.iter().copied())
        .collect()
}

/// The open-loop results of a ladder pass: total p99 at the two fixed rates
/// and the knee, the highest ladder rate whose pooled p99 meets the SLO
/// with no growing backlog.
pub fn ladder_metrics(sims: &[SessionSim], report: &mut Report) {
    let no_backlog = |qps: f64| {
        let (last, span) = exec::ladder()
            .iter()
            .zip(sims)
            .filter(|(s, _)| s.qps == qps)
            .fold((0.0, 0.0), |(l, d), (_, sim)| {
                (l + sim.last_arrival_seconds, d + sim.duration_seconds)
            });
        last >= exec::BACKLOG_MIN_RATIO * span
    };
    let knee = exec::LADDER_QPS
        .iter()
        .copied()
        .filter(|&qps| {
            percentile(&pooled(sims, qps), 0.99) <= exec::SLO_P99_SECONDS && no_backlog(qps)
        })
        .fold(0.0, f64::max);
    report.metric(
        "sim_p99_ms.rate-lo",
        percentile(&pooled(sims, RATE_LO_QPS), 0.99) * 1e3,
        "ms",
    );
    report.metric(
        "sim_p99_ms.rate-hi",
        percentile(&pooled(sims, RATE_HI_QPS), 0.99) * 1e3,
        "ms",
    );
    report.metric("sim_knee_qps", knee, "1/s");
}

/// Open loop on the simulated clock: `run_service`'s seeded Poisson
/// arrivals at the fixed ladder rates. Arrival times are simulated, so the
/// generator is never late. The first pass over the ladder fixes the
/// simulated results; further passes run while one more fits in
/// `--seconds` and must repeat them exactly.
fn service(args: &Args, queries: &[Query], report: &mut Report) {
    for q in queries {
        let (_, result, device) = exec::run_solo(Kind::ServiceMix, q);
        report.check(exec::solo_failure(q, &result, &device));
    }
    let shapes = Shapes::new(queries);
    let warm_up = Session {
        qps: RATE_HI_QPS,
        arrivals: 200,
        stream: u64::MAX,
    };
    let (_, result, device) = exec::run_session(&shapes, warm_up, args.seed);
    report.tally(
        warm_up.arrivals as u64,
        exec::session_failure(warm_up, &result, &device),
    );

    let ladder = exec::ladder();
    let session_tuples: u64 = (0..exec::ARRIVALS).map(|a| shapes.arrival_tuples(a)).sum();
    let mut first: Option<Vec<SessionSim>> = None;
    let mut host_ms_per_arrival = Vec::new();
    let mut host_seconds = 0.0;
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        let (host, sims) = ladder_pass(&shapes, args.seed, report);
        for (session, seconds) in ladder.iter().zip(host) {
            host_ms_per_arrival.push(seconds * 1e3 / session.arrivals as f64);
            host_seconds += seconds;
        }
        passes += 1;
        let Some(sims) = sims else { break };
        match &first {
            None => first = Some(sims),
            Some(reference) => {
                for ((session, got), want) in ladder.iter().zip(&sims).zip(reference) {
                    if got != want {
                        report.tally(
                            0,
                            Some((
                                session.arrivals as u64,
                                format!("session at {} qps: simulated result changed", session.qps),
                            )),
                        );
                    }
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * f64::from(passes + 1) / f64::from(passes) > args.seconds {
            break;
        }
    }
    eprintln!(
        "{passes} ladder passes, {} host samples (sessions)",
        host_ms_per_arrival.len()
    );
    let Some(sims) = first else { return };

    let sim_tuples = (ladder.len() as u64 * session_tuples) as f64;
    let busy: f64 = sims.iter().map(|s| s.busy_seconds).sum();
    let peak = sims.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    report.metric(
        "host_query_ms_p50",
        percentile(&host_ms_per_arrival, 0.5),
        "ms",
    );
    report.metric(
        "host_query_ms_p90",
        percentile(&host_ms_per_arrival, 0.9),
        "ms",
    );
    report.metric(
        "host_tuples_per_s",
        (u64::from(passes) * ladder.len() as u64 * session_tuples) as f64 / host_seconds,
        "1/s",
    );
    // Per-query latency is taken under light load, at the low rate; the
    // loaded tail is the traced run's `sim_p99_ms.rate-hi`.
    let light = pooled(&sims, RATE_LO_QPS);
    report.metric("sim_query_ms_p50", percentile(&light, 0.5) * 1e3, "ms");
    report.metric("sim_query_ms_p90", percentile(&light, 0.9) * 1e3, "ms");
    report.metric("sim_tuples_per_s", sim_tuples / busy, "1/s");
    report.metric("sim_peak_device_mb", peak as f64 / MB, "MB");
}
