//! CI gate for the device-side scratch arena.
//!
//! Two halves, both of which must pass:
//!
//! 1. **Live invariants.** Runs patterns (a)–(d) fused and unfused on
//!    fresh devices and checks the arena contract directly: exactly one
//!    Alloc and one Free span per plan (sub-allocations are span-free),
//!    `high_water <= reservation`, zero spills (the admission predictor
//!    replays the executor's schedule, so the reservation is exact), and
//!    the device tracker's peak equal to the reservation — the
//!    predictor-fidelity claim, bit-exact.
//! 2. **JSON schema.** Re-parses `BENCH_arena.json` (hand-rolled JSON, so
//!    a writer bug shows up as a syntax error here), verifies the keys
//!    the regression gate consumes, and re-checks the span-count bound,
//!    spill freedom and byte envelopes row by row.
//!
//! ```bash
//! cargo run -p kw-examples --example arena_check [path/to/BENCH_arena.json]
//! ```

use kw_gpu_sim::{parse_json, validate_json, Device, DeviceConfig, JsonValue, SpanKind};
use kw_tpch::Pattern;

/// Keys the bench_regression gate and EXPERIMENTS.md consume.
const REQUIRED_KEYS: [&str; 11] = [
    "\"experiment\"",
    "\"tuples_per_input\"",
    "\"rows\"",
    "\"pattern\"",
    "\"fused_alloc_spans\"",
    "\"unfused_alloc_spans\"",
    "\"fused_sub_allocs\"",
    "\"unfused_sub_allocs\"",
    "\"saved_alloc_pairs\"",
    "\"reservation_bytes\"",
    "\"high_water_bytes\"",
];

/// Alloc or Free spans a single plan may emit: one reservation, one
/// release. The whole point of the arena is that this does not scale
/// with plan depth or chunk count.
const SPAN_BOUND: u64 = 1;

fn check_live() -> u32 {
    let mut failures = 0;
    for pattern in [Pattern::A, Pattern::B, Pattern::C, Pattern::D] {
        let w = pattern.build(1 << 12, 0xC2050);
        for (variant, cfg) in [
            ("fused", kw_core::WeaverConfig::default()),
            ("unfused", kw_core::WeaverConfig::default().baseline()),
        ] {
            let mut dev = Device::new(DeviceConfig::fermi_c2050());
            let report = match w.run(&mut dev, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("INVALID: {} {variant} failed to execute: {e}", w.name);
                    failures += 1;
                    continue;
                }
            };
            let count =
                |kind: SpanKind| dev.spans().iter().filter(|s| s.kind == kind).count() as u64;
            let (allocs, frees) = (count(SpanKind::Alloc), count(SpanKind::Free));
            if allocs > SPAN_BOUND || frees > SPAN_BOUND {
                eprintln!(
                    "INVALID: {} {variant} emitted {allocs} Alloc / {frees} Free spans \
                     (bound: {SPAN_BOUND} each)",
                    w.name
                );
                failures += 1;
            }
            let Some(arena) = report.arena else {
                eprintln!("INVALID: {} {variant} reported no arena stats", w.name);
                failures += 1;
                continue;
            };
            if arena.high_water > arena.reservation {
                eprintln!(
                    "INVALID: {} {variant} high-water {} exceeds its reservation {}",
                    w.name, arena.high_water, arena.reservation
                );
                failures += 1;
            }
            let spills = dev.metrics().counter("kw_arena_spills_total");
            if spills != 0 {
                eprintln!(
                    "INVALID: {} {variant} spilled {spills} buffers past the reservation",
                    w.name
                );
                failures += 1;
            }
            if dev.memory().peak() != arena.reservation {
                eprintln!(
                    "INVALID: {} {variant} tracker peak {} != reservation {} — the \
                     admission predictor drifted from the executor's schedule",
                    w.name,
                    dev.memory().peak(),
                    arena.reservation
                );
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "live: 4 patterns x 2 variants hold the span bound, spill-free, \
             high-water <= reservation, peak == reservation"
        );
    }
    failures
}

fn check_json(path: &str) -> u32 {
    let mut failures = 0;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("INVALID: cannot read {path}: {e}");
            eprintln!("(run `cargo run -p kw-bench --bin paper_tables -- arena` first)");
            return 1;
        }
    };
    match validate_json(&text) {
        Ok(()) => println!("{path}: well-formed JSON ({} bytes)", text.len()),
        Err(e) => {
            eprintln!("INVALID: {path} does not parse: {e}");
            failures += 1;
        }
    }
    for key in REQUIRED_KEYS {
        if !text.contains(key) {
            eprintln!("INVALID: {path} is missing required key {key}");
            failures += 1;
        }
    }

    let doc = match parse_json(&text) {
        Ok(d) => d,
        Err(_) => return failures.max(1),
    };
    let Some(JsonValue::Array(rows)) = doc.get("rows") else {
        eprintln!("INVALID: {path} has no rows array");
        return failures + 1;
    };
    if rows.is_empty() {
        eprintln!("INVALID: {path} has an empty rows array");
        failures += 1;
    }
    let num = |row: &JsonValue, key: &str| -> Option<f64> {
        match row.get(key) {
            Some(JsonValue::Number(v)) => Some(*v),
            _ => None,
        }
    };
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "fused_alloc_spans",
            "fused_free_spans",
            "unfused_alloc_spans",
            "unfused_free_spans",
        ] {
            match num(row, key) {
                Some(v) if v <= SPAN_BOUND as f64 => {}
                other => {
                    eprintln!("INVALID: rows[{i}].{key} must be <= {SPAN_BOUND}, got {other:?}");
                    failures += 1;
                }
            }
        }
        match num(row, "spills") {
            Some(0.0) => {}
            other => {
                eprintln!("INVALID: rows[{i}] must be spill-free, got {other:?}");
                failures += 1;
            }
        }
        match (num(row, "high_water_bytes"), num(row, "reservation_bytes")) {
            (Some(hw), Some(res)) if hw <= res && res > 0.0 => {}
            (hw, res) => {
                eprintln!("INVALID: rows[{i}] needs 0 < high-water {hw:?} <= reservation {res:?}");
                failures += 1;
            }
        }
        match (
            num(row, "saved_alloc_pairs"),
            num(row, "unfused_sub_allocs"),
            num(row, "unfused_alloc_spans"),
        ) {
            (Some(saved), Some(sub), Some(spans)) if saved == sub - spans && saved > 0.0 => {}
            (saved, sub, spans) => {
                eprintln!(
                    "INVALID: rows[{i}] saved_alloc_pairs {saved:?} must equal \
                     unfused_sub_allocs {sub:?} - unfused_alloc_spans {spans:?}, positive"
                );
                failures += 1;
            }
        }
        match (num(row, "fused_seconds"), num(row, "unfused_seconds")) {
            (Some(f), Some(u)) if f > 0.0 && u > 0.0 => {}
            (f, u) => {
                eprintln!("INVALID: rows[{i}] needs positive wallclocks, got {f:?}/{u:?}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "{path}: all {} required keys present, {} rows hold the span bound \
             and byte envelopes",
            REQUIRED_KEYS.len(),
            rows.len()
        );
    }
    failures
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench_results/BENCH_arena.json".into());
    let failures = check_live() + check_json(&path);
    if failures > 0 {
        std::process::exit(1);
    }
}
