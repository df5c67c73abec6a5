//! End-to-end integration tests: plans flow through Kernel Weaver's full
//! pipeline (candidates → selection → weaving → optimization → simulated
//! execution) and every configuration produces the CPU oracle's answer.

use kw_core::{compile, execute_plan, ExecMode, QueryPlan, ResourceBudget, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_kernel_ir::OptLevel;
use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{gen, ops, CmpOp, Expr, Predicate, Relation, Value};
use kw_tpch::Pattern;

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// Every combination of {fusion, opt level, exec mode} computes the same
/// relation for every micro-benchmark pattern.
#[test]
fn all_configurations_agree_on_all_patterns() {
    for pattern in Pattern::all() {
        let w = pattern.build(3_000, 11);
        let mut reference = None;
        for fusion in [true, false] {
            for opt in [OptLevel::O0, OptLevel::O3] {
                for mode in [ExecMode::Resident, ExecMode::Staged] {
                    let config = WeaverConfig {
                        fusion,
                        opt,
                        mode,
                        ..WeaverConfig::default()
                    };
                    let mut dev = device();
                    let report = w.run(&mut dev, &config).unwrap_or_else(|e| {
                        panic!("{} {fusion}/{opt:?}/{mode:?}: {e}", pattern.label())
                    });
                    match &reference {
                        None => reference = Some(report.outputs),
                        Some(r) => assert_eq!(
                            &report.outputs,
                            r,
                            "{} fusion={fusion} {opt:?} {mode:?}",
                            pattern.label()
                        ),
                    }
                }
            }
        }
    }
}

/// A deep mixed pipeline: selects, maps, joins, set ops, unique — fused
/// result equals the composed CPU reference operators.
#[test]
fn deep_mixed_pipeline_matches_cpu_oracle() {
    let (a, b) = gen::join_inputs(4_000, 4, 0.5, 3);

    let mut plan = QueryPlan::new();
    let na = plan.add_input("a", a.schema().clone());
    let nb = plan.add_input("b", b.schema().clone());
    let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));
    let sa = plan
        .add_op(RaOp::Select { pred: pred.clone() }, &[na])
        .unwrap();
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[sa, nb]).unwrap();
    let pr = plan
        .add_op(
            RaOp::Project {
                attrs: vec![0, 1, 4],
                key_arity: 1,
            },
            &[j],
        )
        .unwrap();
    let mp = plan
        .add_op(
            RaOp::Map {
                exprs: vec![Expr::attr(0), Expr::attr(1).add(Expr::attr(2))],
                key_arity: 1,
            },
            &[pr],
        )
        .unwrap();
    let un = plan.add_op(RaOp::Unique, &[mp]).unwrap();
    plan.mark_output(un);

    // CPU oracle.
    let oracle = {
        let sa = ops::select(&a, &pred).unwrap();
        let j = ops::join(&sa, &b, 1).unwrap();
        let pr = ops::project(&j, &[0, 1, 4], 1).unwrap();
        let mp = ops::compute(&pr, &[Expr::attr(0), Expr::attr(1).add(Expr::attr(2))], 1).unwrap();
        ops::unique(&mp).unwrap()
    };

    for fusion in [true, false] {
        let config = WeaverConfig {
            fusion,
            ..WeaverConfig::default()
        };
        let mut dev = device();
        let report = execute_plan(&plan, &[("a", &a), ("b", &b)], &mut dev, &config).unwrap();
        assert_eq!(report.outputs[&un], oracle, "fusion={fusion}");
    }
}

/// Set operations and sorts compose correctly through the pipeline.
#[test]
fn set_operations_with_sort_boundary() {
    let x = gen::micro_input(2_000, 5);
    let y = gen::micro_input(2_000, 6);

    let mut plan = QueryPlan::new();
    let nx = plan.add_input("x", x.schema().clone());
    let ny = plan.add_input("y", y.schema().clone());
    let u = plan.add_op(RaOp::Union, &[nx, ny]).unwrap();
    let srt = plan.add_op(RaOp::Sort { attrs: vec![2] }, &[u]).unwrap();
    let sel = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 4)),
            },
            &[srt],
        )
        .unwrap();
    let d = plan.add_op(RaOp::Difference, &[sel, sel]).unwrap();
    plan.mark_output(d);

    let mut dev = device();
    let report = execute_plan(
        &plan,
        &[("x", &x), ("y", &y)],
        &mut dev,
        &WeaverConfig::default(),
    )
    .unwrap();
    // A \ A is empty.
    assert!(report.outputs[&d].is_empty());
}

/// Q1 and Q21 produce identical results across all execution configurations.
#[test]
fn tpch_queries_all_configurations() {
    for w in [kw_tpch::q1(1.0, 13), kw_tpch::q21(1.0, 13)] {
        let mut reference: Option<Relation> = None;
        for fusion in [true, false] {
            for mode in [ExecMode::Resident, ExecMode::Staged] {
                let config = WeaverConfig {
                    fusion,
                    mode,
                    ..WeaverConfig::default()
                };
                let mut dev = device();
                let report = w.run(&mut dev, &config).unwrap();
                let out = report.outputs.values().next().unwrap().clone();
                match &reference {
                    None => reference = Some(out),
                    Some(r) => assert_eq!(&out, r, "{} fusion={fusion} {mode:?}", w.name),
                }
            }
        }
    }
}

/// Tight resource budgets change the schedule but never the answer.
#[test]
fn budget_variations_preserve_results() {
    let w = Pattern::C.build(3_000, 17);
    let mut reference = None;
    for shared in [2 << 10, 6 << 10, 12 << 10, 48 << 10] {
        let config = WeaverConfig {
            budget: ResourceBudget {
                max_registers_per_thread: 63,
                max_shared_per_cta: shared,
            },
            ..WeaverConfig::default()
        };
        let mut dev = device();
        let report = w.run(&mut dev, &config).unwrap();
        match &reference {
            None => reference = Some(report.outputs),
            Some(r) => assert_eq!(&report.outputs, r, "shared budget {shared}"),
        }
    }
}

/// Aggregates after fusible pipelines: grouped sums equal the oracle.
#[test]
fn aggregate_pipeline_matches_oracle() {
    let input = gen::micro_input(5_000, 19);
    let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));

    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan
        .add_op(RaOp::Select { pred: pred.clone() }, &[t])
        .unwrap();
    let g = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![3],
                aggs: vec![AggFn::Count, AggFn::Min(1), AggFn::Max(2)],
            },
            &[s],
        )
        .unwrap();
    plan.mark_output(g);

    let oracle = ops::aggregate(
        &ops::select(&input, &pred).unwrap(),
        &[3],
        &[AggFn::Count, AggFn::Min(1), AggFn::Max(2)],
    )
    .unwrap();

    let mut dev = device();
    let report = execute_plan(&plan, &[("t", &input)], &mut dev, &WeaverConfig::default()).unwrap();
    assert_eq!(report.outputs[&g], oracle);
}

/// Semi- and anti-joins run fused and unfused with identical results and
/// match the CPU oracle, including when woven together with selects.
#[test]
fn semi_and_anti_joins_fuse_correctly() {
    let (a, b) = gen::join_inputs(3_000, 2, 0.5, 29);
    let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));

    for (op, name) in [
        (RaOp::SemiJoin { key_len: 1 }, "semi"),
        (RaOp::AntiJoin { key_len: 1 }, "anti"),
    ] {
        let mut plan = QueryPlan::new();
        let na = plan.add_input("a", a.schema().clone());
        let nb = plan.add_input("b", b.schema().clone());
        let sa = plan
            .add_op(RaOp::Select { pred: pred.clone() }, &[na])
            .unwrap();
        let sj = plan.add_op(op, &[sa, nb]).unwrap();
        plan.mark_output(sj);

        let filtered = ops::select(&a, &pred).unwrap();
        let oracle = if name == "semi" {
            ops::semi_join(&filtered, &b, 1).unwrap()
        } else {
            ops::anti_join(&filtered, &b, 1).unwrap()
        };

        for fusion in [true, false] {
            let config = WeaverConfig {
                fusion,
                ..WeaverConfig::default()
            };
            let mut dev = device();
            let report = execute_plan(&plan, &[("a", &a), ("b", &b)], &mut dev, &config).unwrap();
            assert_eq!(report.outputs[&sj], oracle, "{name} fusion={fusion}");
            if fusion {
                assert_eq!(report.fusion_sets.len(), 1, "{name} should fuse");
            }
        }
    }
}

/// Semi-join then anti-join partition the left side.
#[test]
fn semi_anti_partition_property() {
    let (a, b) = gen::join_inputs(2_000, 2, 0.4, 31);
    let mut plan = QueryPlan::new();
    let na = plan.add_input("a", a.schema().clone());
    let nb = plan.add_input("b", b.schema().clone());
    let semi = plan
        .add_op(RaOp::SemiJoin { key_len: 1 }, &[na, nb])
        .unwrap();
    let anti = plan
        .add_op(RaOp::AntiJoin { key_len: 1 }, &[na, nb])
        .unwrap();
    plan.mark_output(semi);
    plan.mark_output(anti);
    let mut dev = device();
    let report = execute_plan(
        &plan,
        &[("a", &a), ("b", &b)],
        &mut dev,
        &WeaverConfig::default(),
    )
    .unwrap();
    assert_eq!(
        report.outputs[&semi].len() + report.outputs[&anti].len(),
        a.len()
    );
}

/// The compiled baseline of Q21 launches 3 kernels per streaming operator
/// plus the sort/aggregate passes — the paper's "operators map to many
/// kernels" observation.
#[test]
fn kernel_counts_match_operator_structure() {
    let w = kw_tpch::q21(1.0, 23);
    let compiled = compile(&w.plan, &WeaverConfig::default().baseline()).unwrap();
    let mut dev = device();
    let report = w
        .run(&mut dev, &WeaverConfig::default().baseline())
        .unwrap();
    assert_eq!(report.operator_count, compiled.steps.len());
    // At least 3 kernels per streaming op; sorts add passes.
    assert!(dev.stats().kernel_launches >= 3 * compiled.steps.len() as u64);
}
