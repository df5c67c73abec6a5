//! Property tests over random *DAG-shaped* plans (branches, shared
//! producers, multiple outputs): whatever Algorithm 1/2 and the weaver
//! decide, results must equal the unfused baseline in both exec modes.

use proptest::prelude::*;

use kw_core::{execute_plan, NodeId, QueryPlan, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Expr, Predicate, Relation, Schema, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// Instructions for growing a random DAG: each entry picks producers by
/// index modulo the current frontier and an operator shape.
#[derive(Debug, Clone)]
enum GrowStep {
    Select(usize, u32),
    MapAdd(usize, u32),
    Join(usize, usize),
    SemiJoin(usize, usize, bool),
    Union(usize, usize),
}

fn arb_grow() -> impl Strategy<Value = GrowStep> {
    prop_oneof![
        (any::<usize>(), any::<u32>()).prop_map(|(a, v)| GrowStep::Select(a, v)),
        (any::<usize>(), 1u32..1000).prop_map(|(a, v)| GrowStep::MapAdd(a, v)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GrowStep::Join(a, b)),
        (any::<usize>(), any::<usize>(), any::<bool>())
            .prop_map(|(a, b, n)| GrowStep::SemiJoin(a, b, n)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GrowStep::Union(a, b)),
    ]
}

/// Grow a plan whose every node keeps the uniform 4×u32 schema (joins are
/// re-projected down), so any composition type-checks.
fn grow_plan(steps: &[GrowStep]) -> (QueryPlan, Vec<NodeId>) {
    let schema = Schema::uniform_u32(4);
    let mut plan = QueryPlan::new();
    let t0 = plan.add_input("t0", schema.clone());
    let t1 = plan.add_input("t1", schema);
    let mut frontier = vec![t0, t1];

    for step in steps {
        let pick = |i: usize| frontier[i % frontier.len()];
        let node = match step {
            GrowStep::Select(a, v) => plan
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(1 + (a % 3), CmpOp::Lt, Value::U32(*v | 0x0fff_ffff)),
                    },
                    &[pick(*a)],
                )
                .unwrap(),
            GrowStep::MapAdd(a, v) => plan
                .add_op(
                    RaOp::Map {
                        exprs: vec![
                            Expr::attr(0),
                            Expr::attr(1).add(Expr::lit(*v)),
                            Expr::attr(2),
                            Expr::attr(3),
                        ],
                        key_arity: 1,
                    },
                    &[pick(*a)],
                )
                .unwrap(),
            GrowStep::Join(a, b) => {
                let j = plan
                    .add_op(RaOp::Join { key_len: 1 }, &[pick(*a), pick(*b)])
                    .unwrap();
                // Back to 4 attributes so the frontier stays uniform.
                plan.add_op(
                    RaOp::Project {
                        attrs: vec![0, 1, 2, 3],
                        key_arity: 1,
                    },
                    &[j],
                )
                .unwrap()
            }
            GrowStep::SemiJoin(a, b, negated) => {
                let op = if *negated {
                    RaOp::AntiJoin { key_len: 1 }
                } else {
                    RaOp::SemiJoin { key_len: 1 }
                };
                plan.add_op(op, &[pick(*a), pick(*b)]).unwrap()
            }
            GrowStep::Union(a, b) => plan.add_op(RaOp::Union, &[pick(*a), pick(*b)]).unwrap(),
        };
        frontier.push(node);
    }

    // Every sink (unconsumed node) is a plan output.
    let sinks: Vec<NodeId> = frontier
        .iter()
        .copied()
        .filter(|&n| {
            plan.consumers(n).is_empty() && !matches!(plan.node(n), kw_core::PlanNode::Input { .. })
        })
        .collect();
    let outputs = if sinks.is_empty() {
        vec![*frontier.last().unwrap()]
    } else {
        sinks
    };
    for &o in &outputs {
        plan.mark_output(o);
    }
    (plan, outputs)
}

fn inputs_for(seed: u64, n: usize) -> (Relation, Relation) {
    let schema = Schema::uniform_u32(4);
    let a = gen::random_relation(&schema, n, 256, &mut gen::rng(seed));
    let b = gen::random_relation(&schema, n, 256, &mut gen::rng(seed ^ 0xABCD));
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_dags_fuse_correctly(
        steps in proptest::collection::vec(arb_grow(), 1..8),
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        let (plan, _) = grow_plan(&steps);
        prop_assume!(plan.validate().is_ok());
        let (a, b) = inputs_for(seed, n);
        let bindings = [("t0", &a), ("t1", &b)];

        let mut d1 = device();
        let fused = execute_plan(&plan, &bindings, &mut d1, &WeaverConfig::default())
            .expect("fused execution");
        let mut d2 = device();
        let base = execute_plan(&plan, &bindings, &mut d2, &WeaverConfig::default().baseline())
            .expect("baseline execution");
        prop_assert_eq!(&fused.outputs, &base.outputs);

        // Staged mode agrees too.
        let staged = WeaverConfig {
            mode: kw_core::ExecMode::Staged,
            ..WeaverConfig::default()
        };
        let mut d3 = device();
        let staged_run = execute_plan(&plan, &bindings, &mut d3, &staged)
            .expect("staged execution");
        prop_assert_eq!(&staged_run.outputs, &base.outputs);

        // Accounting sanity on every run.
        for (report, dev) in [(&fused, &d1), (&base, &d2), (&staged_run, &d3)] {
            prop_assert!(report.gpu_seconds > 0.0);
            prop_assert!(dev.stats().kernel_launches > 0);
        }
        prop_assert!(d1.memory().in_use() == 0, "all buffers freed");
        prop_assert!(d3.memory().in_use() == 0, "all staged buffers freed");
    }
}
