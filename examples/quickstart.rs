//! Quickstart: build a query plan, let Kernel Weaver fuse it, and compare
//! against the unfused baseline on the simulated GPU.
//!
//! ```bash
//! cargo run --release -p kw-examples --example quickstart
//! ```

use kw_core::{execute_plan, QueryPlan, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A relation of one million 16-byte tuples (four u32 attributes),
    //    keyed on the first attribute — the paper's micro-benchmark shape.
    let input = gen::micro_input(1 << 20, 42);
    println!(
        "input: {} tuples, {} MiB",
        input.len(),
        input.byte_size() >> 20
    );

    // 2. A query plan: two 50%-selectivity filters then a projection
    //    (micro-benchmark pattern (a) with depth two).
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s1 = plan.add_op(
        RaOp::Select {
            pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        },
        &[t],
    )?;
    let s2 = plan.add_op(
        RaOp::Select {
            pred: Predicate::cmp(2, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        },
        &[s1],
    )?;
    let out = plan.add_op(
        RaOp::Project {
            attrs: vec![0, 3],
            key_arity: 1,
        },
        &[s2],
    )?;
    plan.mark_output(out);

    // 3. Execute with kernel fusion (the default) ...
    let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
    let fused = execute_plan(
        &plan,
        &[("t", &input)],
        &mut fused_dev,
        &WeaverConfig::default(),
    )?;

    // 4. ... and as the unfused primitive-library baseline.
    let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
    let base = execute_plan(
        &plan,
        &[("t", &input)],
        &mut base_dev,
        &WeaverConfig::default().baseline(),
    )?;

    assert_eq!(
        fused.outputs, base.outputs,
        "fusion must not change results"
    );

    println!("\n                    fused     baseline");
    println!(
        "operators       {:>9} {:>12}",
        fused.operator_count, base.operator_count
    );
    println!(
        "kernel launches {:>9} {:>12}",
        fused_dev.stats().kernel_launches,
        base_dev.stats().kernel_launches
    );
    println!(
        "GPU time        {:>8.3}ms {:>10.3}ms",
        fused.gpu_seconds * 1e3,
        base.gpu_seconds * 1e3
    );
    println!(
        "global traffic  {:>7}MiB {:>9}MiB",
        fused_dev.stats().global_bytes() >> 20,
        base_dev.stats().global_bytes() >> 20
    );
    println!(
        "\nkernel fusion speedup: {:.2}x",
        base.gpu_seconds / fused.gpu_seconds
    );
    println!(
        "result: {} tuples (identical with and without fusion)",
        fused.outputs[&out].len()
    );
    Ok(())
}
