//! Property-based tests of the fusion compiler: for randomly generated
//! plans and data, fusion never changes results, never exceeds its resource
//! budget, and never loses to the baseline on data movement.

use proptest::prelude::*;

use kw_core::{compile, execute_plan, QueryPlan, ResourceBudget, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_kernel_ir::{estimate_resources, infer_schemas, OptLevel};
use kw_primitives::RaOp;
use kw_relational::{CmpOp, Expr, Predicate, Relation, Schema, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// A random unary operator compatible with 4-attribute u32 schemas.
fn arb_unary_op() -> impl Strategy<Value = RaOp> {
    prop_oneof![
        // SELECT with a random threshold on a random attribute.
        (
            0usize..4,
            any::<u32>(),
            prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Ge), Just(CmpOp::Ne)]
        )
            .prop_map(|(attr, v, op)| RaOp::Select {
                pred: Predicate::cmp(attr, op, Value::U32(v)),
            }),
        // Key-preserving PROJECT back to 4 attributes (keeps schemas closed
        // under composition so chains of any shape type-check).
        proptest::sample::subsequence(vec![1usize, 2, 3], 3).prop_map(|mut rest| {
            let mut attrs = vec![0usize];
            attrs.append(&mut rest);
            while attrs.len() < 4 {
                attrs.push(attrs.len() % 3 + 1);
            }
            RaOp::Project {
                attrs,
                key_arity: 1,
            }
        }),
        // Arithmetic MAP preserving arity.
        (1u32..1000).prop_map(|c| RaOp::Map {
            exprs: vec![
                Expr::attr(0),
                Expr::attr(1).add(Expr::lit(c)),
                Expr::attr(2).mul(Expr::lit(2u32)),
                Expr::attr(3),
            ],
            key_arity: 1,
        }),
    ]
}

/// A random relation of 4-attribute u32 tuples.
fn arb_relation(max_n: usize) -> impl Strategy<Value = Relation> {
    (0..max_n, any::<u64>()).prop_map(|(n, seed)| {
        kw_relational::gen::random_relation(
            &Schema::uniform_u32(4),
            n,
            1 << 12,
            &mut kw_relational::gen::rng(seed),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused and unfused execution agree on random unary chains.
    #[test]
    fn random_unary_chains_fuse_correctly(
        input in arb_relation(600),
        ops in proptest::collection::vec(arb_unary_op(), 1..6),
    ) {
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let mut prev = t;
        for op in &ops {
            prev = plan.add_op(op.clone(), &[prev]).expect("chain type-checks");
        }
        plan.mark_output(prev);

        let mut d1 = device();
        let fused = execute_plan(&plan, &[("t", &input)], &mut d1, &WeaverConfig::default())
            .expect("fused");
        let mut d2 = device();
        let base = execute_plan(
            &plan, &[("t", &input)], &mut d2, &WeaverConfig::default().baseline(),
        ).expect("baseline");

        prop_assert_eq!(&fused.outputs, &base.outputs);
        // Fusion never moves more global bytes than the baseline.
        prop_assert!(
            d1.stats().global_bytes() <= d2.stats().global_bytes(),
            "fused {} > base {}", d1.stats().global_bytes(), d2.stats().global_bytes()
        );
    }

    /// Random two-table plans with a join: fused == unfused == same outputs
    /// in both exec modes.
    #[test]
    fn random_join_plans_fuse_correctly(
        n in 1usize..500,
        seed in any::<u64>(),
        pre_ops in proptest::collection::vec(arb_unary_op(), 0..3),
    ) {
        let (a, b) = kw_relational::gen::join_inputs(n, 4, 0.5, seed);
        let mut plan = QueryPlan::new();
        let na = plan.add_input("a", a.schema().clone());
        let nb = plan.add_input("b", b.schema().clone());
        let mut left = na;
        for op in &pre_ops {
            left = plan.add_op(op.clone(), &[left]).expect("pre-op");
        }
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[left, nb]).expect("join");
        plan.mark_output(j);

        let mut d1 = device();
        let fused = execute_plan(&plan, &[("a", &a), ("b", &b)], &mut d1, &WeaverConfig::default())
            .expect("fused");
        let mut d2 = device();
        let base = execute_plan(
            &plan, &[("a", &a), ("b", &b)], &mut d2, &WeaverConfig::default().baseline(),
        ).expect("baseline");
        prop_assert_eq!(&fused.outputs, &base.outputs);
    }

    /// Every fused kernel the compiler emits respects the resource budget
    /// it was selected under.
    #[test]
    fn fusion_sets_respect_budget(
        seed in any::<u64>(),
        regs in 24u32..63,
        shared_kib in 2u32..48,
    ) {
        let w = kw_tpch::Pattern::C.build(512, seed);
        let budget = ResourceBudget {
            max_registers_per_thread: regs,
            max_shared_per_cta: shared_kib * 1024,
        };
        let config = WeaverConfig { budget, ..WeaverConfig::default() };
        let compiled = compile(&w.plan, &config).expect("compile");
        for step in compiled.steps.iter().filter(|s| s.fused) {
            let inferred = infer_schemas(&step.op).expect("infer");
            let res = estimate_resources(&step.op, &inferred, OptLevel::O3).expect("resources");
            prop_assert!(budget.admits(res), "{}: {res:?} vs {budget:?}", step.op.label);
        }
    }

    /// Optimization level never changes results on random chains.
    #[test]
    fn opt_level_preserves_results(
        input in arb_relation(400),
        ops in proptest::collection::vec(arb_unary_op(), 1..5),
    ) {
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let mut prev = t;
        for op in &ops {
            prev = plan.add_op(op.clone(), &[prev]).expect("chain");
        }
        plan.mark_output(prev);

        let mut d0 = device();
        let o0 = execute_plan(&plan, &[("t", &input)], &mut d0, &WeaverConfig {
            opt: OptLevel::O0, ..WeaverConfig::default()
        }).expect("O0");
        let mut d3 = device();
        let o3 = execute_plan(&plan, &[("t", &input)], &mut d3, &WeaverConfig::default())
            .expect("O3");
        prop_assert_eq!(&o0.outputs, &o3.outputs);
        // O0 never beats O3 on GPU cycles.
        prop_assert!(d0.stats().gpu_cycles >= d3.stats().gpu_cycles);
    }
}
