//! Plan-walking CPU oracle: evaluates a [`QueryPlan`] node by node with the
//! reference operators of `kw_relational::ops`, independently of the
//! compiler, the kernel IR and the simulated device.

use std::borrow::Cow;
use std::collections::BTreeMap;

use kw_core::{NodeId, PlanNode, QueryPlan};
use kw_primitives::RaOp;
use kw_relational::{ops, Relation};

/// The relations of a plan's marked outputs, by node.
pub type Outputs = BTreeMap<NodeId, Relation>;

/// The relations of `plan`'s marked outputs over `bindings`.
pub fn evaluate(plan: &QueryPlan, bindings: &[(&str, &Relation)]) -> Result<Outputs, String> {
    let mut values: Vec<Cow<'_, Relation>> = Vec::with_capacity(plan.len());
    for id in plan.node_ids() {
        let value = match plan.node(id) {
            PlanNode::Input { name, .. } => {
                let bound = bindings
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| format!("no relation bound to '{name}'"))?;
                Cow::Borrowed(bound.1)
            }
            PlanNode::Operator { op, inputs } => {
                let args: Vec<&Relation> = inputs.iter().map(|i| values[i.0].as_ref()).collect();
                Cow::Owned(apply(op, &args).map_err(|e| format!("oracle {id}: {e}"))?)
            }
        };
        values.push(value);
    }
    Ok(plan
        .outputs()
        .iter()
        .map(|&o| (o, values[o.0].clone().into_owned()))
        .collect())
}

/// One operator over its evaluated inputs; covers every [`RaOp`] variant.
fn apply(op: &RaOp, args: &[&Relation]) -> kw_relational::Result<Relation> {
    match op {
        RaOp::Select { pred } => ops::select(args[0], pred),
        RaOp::Project { attrs, key_arity } => ops::project(args[0], attrs, *key_arity),
        RaOp::Map { exprs, key_arity } => ops::compute(args[0], exprs, *key_arity),
        RaOp::Join { key_len } => ops::join(args[0], args[1], *key_len),
        RaOp::Product => ops::product(args[0], args[1]),
        RaOp::SemiJoin { key_len } => ops::semi_join(args[0], args[1], *key_len),
        RaOp::AntiJoin { key_len } => ops::anti_join(args[0], args[1], *key_len),
        RaOp::Union => ops::union(args[0], args[1]),
        RaOp::Intersect => ops::intersect(args[0], args[1]),
        RaOp::Difference => ops::difference(args[0], args[1]),
        RaOp::Unique => ops::unique(args[0]),
        RaOp::Sort { attrs } => ops::sort_on(args[0], attrs),
        RaOp::Aggregate { group_by, aggs } => ops::aggregate(args[0], group_by, aggs),
    }
}

/// Byte-for-byte equality of two output maps: same nodes, schemas and words.
pub fn identical(got: &Outputs, want: &Outputs) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|((gn, g), (wn, w))| {
            gn == wn && g.schema() == w.schema() && g.words() == w.words()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::{execute_plan, WeaverConfig};
    use kw_gpu_sim::{Device, DeviceConfig};
    use kw_relational::ops::AggFn;
    use kw_relational::{gen, CmpOp, Expr, Predicate, Schema, Value};

    /// Every operator variant, alone over two small relations, must give
    /// the executor's answer byte for byte.
    #[test]
    fn oracle_matches_the_executor_on_every_operator() {
        let mut r = gen::rng(7);
        let schema = Schema::uniform_u32(3);
        let a = gen::random_relation(&schema, 300, 64, &mut r);
        let b = gen::random_relation(&schema, 200, 64, &mut r);
        let ops = [
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(32)),
            },
            RaOp::Project {
                attrs: vec![0, 2],
                key_arity: 1,
            },
            RaOp::Map {
                exprs: vec![Expr::attr(0), Expr::attr(1).add(Expr::attr(2))],
                key_arity: 1,
            },
            RaOp::Join { key_len: 1 },
            RaOp::Product,
            RaOp::SemiJoin { key_len: 1 },
            RaOp::AntiJoin { key_len: 1 },
            RaOp::Union,
            RaOp::Intersect,
            RaOp::Difference,
            RaOp::Unique,
            RaOp::Sort { attrs: vec![2] },
            RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Count, AggFn::Sum(1), AggFn::Min(2), AggFn::Max(2)],
            },
        ];
        for op in ops {
            let mut plan = QueryPlan::new();
            let ta = plan.add_input("a", schema.clone());
            let tb = plan.add_input("b", schema.clone());
            let inputs = if op.arity() == 2 {
                vec![ta, tb]
            } else {
                vec![ta]
            };
            let node = plan
                .add_op(op.clone(), &inputs)
                .expect("operator type-checks");
            plan.mark_output(node);
            let bindings = [("a", &a), ("b", &b)];
            let want = evaluate(&plan, &bindings).expect("oracle evaluates");
            let mut device = Device::new(DeviceConfig::fermi_c2050());
            let got = execute_plan(&plan, &bindings, &mut device, &WeaverConfig::default())
                .expect("executor runs");
            assert!(identical(&got.outputs, &want), "{} differs", op.mnemonic());
        }
    }
}
