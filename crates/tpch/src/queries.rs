//! The two TPC-H queries the paper evaluates (Section 5.2).
//!
//! As in the paper, the query plans are built by hand (the authors note
//! their Datalog front-end did not yet compile all of TPC-H). **Q1** is the
//! arithmetic-centric query: a shipdate filter, per-tuple revenue
//! arithmetic, then a grouped aggregation whose internal sort dominates the
//! runtime. **Q21** is the relational-centric query: a pipeline of joins
//! bounded by SORT re-keying operators.

use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{CmpOp, Expr, Predicate, Value};

use crate::schema::{lineitem as l, orders as o};
use crate::{generate, TpchDb, Workload, Q1_SHIPDATE_THRESHOLD, STATUS_F};

/// Build TPC-H Q1 ("pricing summary report") over a generated database.
///
/// ```sql
/// SELECT returnflag, linestatus, SUM(qty), SUM(price), SUM(disc_price),
///        SUM(charge), AVG(qty), AVG(price), AVG(discount), COUNT(*)
/// FROM lineitem WHERE shipdate <= :threshold
/// GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus
/// ```
///
/// The SELECT and the two arithmetic MAPs are fusible (thread dependence);
/// the grouped AGGREGATE is kernel-dependent and its internal sort is the
/// "71% of execution time" the paper cannot optimize.
pub fn q1(scale: f64, seed: u64) -> Workload {
    let db = generate(scale, seed);
    q1_plan(db)
}

/// Q1 over an existing database.
///
/// The plan is decomposed into fine-grained operators the way the paper's
/// front-end emitted it (their Q1 had 15 operators): a date filter, a
/// projection, and a chain of single-expression arithmetic MAPs, all of
/// which fuse — followed by the unfusible grouped aggregation.
pub fn q1_plan(db: TpchDb) -> Workload {
    let mut plan = kw_core::QueryPlan::new();
    let li = plan.add_input("lineitem", db.lineitem.schema().clone());

    // WHERE shipdate <= threshold (keeps ~96% of rows, as in TPC-H).
    let filtered = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(l::SHIPDATE, CmpOp::Le, Value::U32(Q1_SHIPDATE_THRESHOLD)),
            },
            &[li],
        )
        .expect("q1 select");

    // Discard the attributes the aggregation does not need; layout:
    // (returnflag, linestatus, qty, price, discount, tax)
    let trimmed = plan
        .add_op(
            RaOp::Project {
                attrs: vec![
                    l::RETURNFLAG,
                    l::LINESTATUS,
                    l::QUANTITY,
                    l::EXTENDEDPRICE,
                    l::DISCOUNT,
                    l::TAX,
                ],
                key_arity: 0,
            },
            &[filtered],
        )
        .expect("q1 project");

    // one_minus_disc = 1 - discount; appended:
    // (rf, ls, qty, price, discount, tax, 1-disc)
    let keep = |n: usize| -> Vec<Expr> { (0..n).map(Expr::attr).collect() };
    let m1 = plan
        .add_op(
            RaOp::Map {
                exprs: {
                    let mut e = keep(6);
                    e.push(Expr::lit(1.0f32).sub(Expr::attr(4)));
                    e
                },
                key_arity: 0,
            },
            &[trimmed],
        )
        .expect("q1 map 1");

    // disc_price = price * (1 - discount); appended:
    // (rf, ls, qty, price, discount, tax, 1-disc, disc_price)
    let m2 = plan
        .add_op(
            RaOp::Map {
                exprs: {
                    let mut e = keep(7);
                    e.push(Expr::attr(3).mul(Expr::attr(6)));
                    e
                },
                key_arity: 0,
            },
            &[m1],
        )
        .expect("q1 map 2");

    // charge = disc_price * (1 + tax); final aggregation layout:
    // (rf, ls, qty, price, discount, disc_price, charge)
    let m2 = plan
        .add_op(
            RaOp::Map {
                exprs: vec![
                    Expr::attr(0),
                    Expr::attr(1),
                    Expr::attr(2),
                    Expr::attr(3),
                    Expr::attr(4),
                    Expr::attr(7),
                    Expr::attr(7).mul(Expr::lit(1.0f32).add(Expr::attr(5))),
                ],
                key_arity: 0,
            },
            &[m2],
        )
        .expect("q1 map 3");

    // GROUP BY returnflag, linestatus (sorts internally — the paper's
    // dominant, unfusible SORT) with the eight Q1 aggregates.
    let agg = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![0, 1],
                aggs: vec![
                    AggFn::Sum(2), // sum_qty
                    AggFn::Sum(3), // sum_base_price
                    AggFn::Sum(5), // sum_disc_price
                    AggFn::Sum(6), // sum_charge
                    AggFn::Avg(2), // avg_qty
                    AggFn::Avg(3), // avg_price
                    AggFn::Avg(4), // avg_disc
                    AggFn::Count,  // count_order
                ],
            },
            &[m2],
        )
        .expect("q1 aggregate");
    plan.mark_output(agg);

    Workload::new("TPC-H Q1", plan, vec![("lineitem".into(), db.lineitem)])
}

/// The nation selected by Q21's `WHERE n_name = ':1'` (a fixed nation key).
pub const Q21_NATION: u32 = 7;

/// Build TPC-H Q21 ("suppliers who kept orders waiting") over a generated
/// database.
///
/// The plan follows the paper's description: a pipeline built on JOINs —
/// late lineitems ⋈ F-orders ⋈ all-lineitems (the "another supplier on the
/// same order" check) — then SORT boundaries re-keying to supplier and
/// nation before the supplier/nation joins and the final per-supplier
/// count.
pub fn q21(scale: f64, seed: u64) -> Workload {
    let db = generate(scale, seed);
    q21_plan(db)
}

/// Q21 over an existing database.
pub fn q21_plan(db: TpchDb) -> Workload {
    let mut plan = kw_core::QueryPlan::new();
    let li = plan.add_input("lineitem", db.lineitem.schema().clone());
    let or = plan.add_input("orders", db.orders.schema().clone());
    let su = plan.add_input("supplier", db.supplier.schema().clone());
    let na = plan.add_input("nation", db.nation.schema().clone());

    // l1: late lineitems (receiptdate > commitdate), trimmed to (ok, sk).
    let late = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp_attr(l::RECEIPTDATE, CmpOp::Gt, l::COMMITDATE),
            },
            &[li],
        )
        .expect("q21 late select");
    let late_p = plan
        .add_op(
            RaOp::Project {
                attrs: vec![l::ORDERKEY, l::SUPPKEY],
                key_arity: 1,
            },
            &[late],
        )
        .expect("q21 late project");

    // Orders with status 'F'.
    let forders = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(o::ORDERSTATUS, CmpOp::Eq, Value::U32(STATUS_F)),
            },
            &[or],
        )
        .expect("q21 orders select");

    // EXISTS l2 (another supplier on the same order) and NOT EXISTS l3 (no
    // *other* supplier was late) via the count-distinct rewrite:
    // n_supp(ok) >= 2 and n_late(ok) == 1 — when exactly one distinct
    // supplier was late on a multi-supplier order, the late rows are that
    // supplier's.
    let all_p = plan
        .add_op(
            RaOp::Project {
                attrs: vec![l::ORDERKEY, l::SUPPKEY],
                key_arity: 1,
            },
            &[li],
        )
        .expect("q21 all project");
    let u_all = plan.add_op(RaOp::Unique, &[all_p]).expect("q21 unique all");
    let n_supp = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Count],
            },
            &[u_all],
        )
        .expect("q21 supplier count");
    let u_late = plan
        .add_op(RaOp::Unique, &[late_p])
        .expect("q21 unique late");
    let n_late = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Count],
            },
            &[u_late],
        )
        .expect("q21 late count");

    // (ok, n_supp, n_late) with the Q21 conditions applied.
    let counts = plan
        .add_op(RaOp::Join { key_len: 1 }, &[n_supp, n_late])
        .expect("q21 counts join");
    let qualifying = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Ge, Value::U64(2)).and(Predicate::cmp(
                    2,
                    CmpOp::Eq,
                    Value::U64(1),
                )),
            },
            &[counts],
        )
        .expect("q21 qualifying select");

    // ... restricted to F-orders -> (ok, n_supp, n_late, status, custkey).
    let good_orders = plan
        .add_op(RaOp::Join { key_len: 1 }, &[qualifying, forders])
        .expect("q21 order join");

    // The waiting rows: distinct late (ok, sk) pairs of qualifying orders
    // (EXISTS/NOT EXISTS as a semi-join).
    let waiting = plan
        .add_op(RaOp::SemiJoin { key_len: 1 }, &[u_late, good_orders])
        .expect("q21 semi-join");

    // SORT boundary: re-key to suppkey -> (sk, ok).
    let by_supp = plan
        .add_op(RaOp::Sort { attrs: vec![1] }, &[waiting])
        .expect("q21 sort by suppkey");

    // j3 = ⋈ supplier on suppkey -> (sk, ok, nationkey).
    let j3 = plan
        .add_op(RaOp::Join { key_len: 1 }, &[by_supp, su])
        .expect("q21 join 3");

    // SORT boundary: re-key to nationkey (position 2).
    let by_nation = plan
        .add_op(RaOp::Sort { attrs: vec![2] }, &[j3])
        .expect("q21 sort by nationkey");

    // j4 = ⋈ nation on nationkey, then filter to the target nation.
    let j4 = plan
        .add_op(RaOp::Join { key_len: 1 }, &[by_nation, na])
        .expect("q21 join 4");
    let one_nation = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(0, CmpOp::Eq, Value::U32(Q21_NATION)),
            },
            &[j4],
        )
        .expect("q21 nation select");

    // Count waiting orders per supplier: group by suppkey (position 1 after
    // the nation join layout (nk, sk, ok, status, ck, sk2, regionkey)).
    let counted = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![1],
                aggs: vec![AggFn::Count],
            },
            &[one_nation],
        )
        .expect("q21 aggregate");
    plan.mark_output(counted);

    Workload::new(
        "TPC-H Q21",
        plan,
        vec![
            ("lineitem".into(), db.lineitem),
            ("orders".into(), db.orders),
            ("supplier".into(), db.supplier),
            ("nation".into(), db.nation),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::WeaverConfig;
    use kw_gpu_sim::{cycles_for_label, Device, DeviceConfig};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    #[test]
    fn q1_runs_and_produces_groups() {
        let w = q1(1.0, 1);
        let mut d = device();
        let r = w.run(&mut d, &WeaverConfig::default()).unwrap();
        let out = r.outputs.values().next().unwrap();
        // 3 returnflags x 2 linestatuses = up to 6 groups.
        assert!(out.len() >= 4 && out.len() <= 6, "{} groups", out.len());
        assert_eq!(out.schema().arity(), 10);
    }

    #[test]
    fn q1_fused_equals_baseline() {
        let w = q1(1.0, 2);
        let mut d1 = device();
        let fused = w.run(&mut d1, &WeaverConfig::default()).unwrap();
        let mut d2 = device();
        let base = w.run(&mut d2, &WeaverConfig::default().baseline()).unwrap();
        assert_eq!(fused.outputs, base.outputs);
        assert!(base.gpu_seconds > fused.gpu_seconds);
    }

    #[test]
    fn q1_sort_dominates_baseline() {
        let w = q1(4.0, 3);
        let mut d = device();
        let _ = w.run(&mut d, &WeaverConfig::default().baseline()).unwrap();
        let sort_cycles = cycles_for_label(d.spans(), "sort");
        let total: u64 = d.stats().gpu_cycles;
        let frac = sort_cycles as f64 / total as f64;
        assert!(
            frac > 0.5,
            "sort should dominate Q1 (paper: ~71%), got {:.0}%",
            frac * 100.0
        );
    }

    #[test]
    fn q21_runs_and_counts_waiting_suppliers() {
        let w = q21(1.0, 4);
        let mut d = device();
        let r = w.run(&mut d, &WeaverConfig::default()).unwrap();
        let out = r.outputs.values().next().unwrap();
        assert!(!out.is_empty());
        assert_eq!(out.schema().arity(), 2); // (suppkey, count)
    }

    #[test]
    fn q21_fused_equals_baseline_and_wins() {
        let w = q21(2.0, 5);
        let mut d1 = device();
        let fused = w.run(&mut d1, &WeaverConfig::default()).unwrap();
        let mut d2 = device();
        let base = w.run(&mut d2, &WeaverConfig::default().baseline()).unwrap();
        assert_eq!(fused.outputs, base.outputs);
        assert!(base.gpu_seconds > fused.gpu_seconds);
        assert!(!fused.fusion_sets.is_empty());
    }

    #[test]
    fn q21_matches_brute_force_not_exists() {
        use std::collections::{BTreeMap, BTreeSet};
        let db = crate::generate(1.0, 77);
        let w = q21_plan(db.clone());
        let mut d = device();
        let r = w.run(&mut d, &WeaverConfig::default()).unwrap();
        let got: BTreeMap<u64, u64> = r
            .outputs
            .values()
            .next()
            .unwrap()
            .iter()
            .map(|t| (t[0], t[1]))
            .collect();

        // Brute force: for each late lineitem (l1) of an F-order whose
        // supplier is in the target nation, require EXISTS another supplier
        // on the order and NOT EXISTS another *late* supplier.
        let li = &db.lineitem;
        let late = |i: usize| li.tuple(i)[10] > li.tuple(i)[9];
        let f_orders: BTreeSet<u64> = db
            .orders
            .iter()
            .filter(|t| t[1] == u64::from(crate::STATUS_F))
            .map(|t| t[0])
            .collect();
        let nation_of: BTreeMap<u64, u64> = db.supplier.iter().map(|t| (t[0], t[1])).collect();
        let mut suppliers_by_order: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        let mut late_by_order: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for i in 0..li.len() {
            let t = li.tuple(i);
            suppliers_by_order.entry(t[0]).or_default().insert(t[1]);
            if late(i) {
                late_by_order.entry(t[0]).or_default().insert(t[1]);
            }
        }
        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        for (ok, late_supps) in &late_by_order {
            if !f_orders.contains(ok) {
                continue;
            }
            let all = &suppliers_by_order[ok];
            if all.len() < 2 || late_supps.len() != 1 {
                continue;
            }
            let sk = *late_supps.iter().next().unwrap();
            if nation_of.get(&sk) == Some(&u64::from(Q21_NATION)) {
                *expected.entry(sk).or_insert(0) += 1;
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn q21_has_sort_boundaries() {
        let w = q21(1.0, 6);
        let compiled = kw_core::compile(&w.plan, &WeaverConfig::default()).unwrap();
        // The two SORT re-keys and the aggregate bound the fusion regions:
        // no fusion set may span them.
        let sorts = w
            .plan
            .operator_nodes()
            .filter(|(_, op, _)| matches!(op, RaOp::Sort { .. }))
            .count();
        assert_eq!(sorts, 2);
        assert!(compiled.fusion_sets.len() >= 2);
    }
}
