//! Table 2: task creation overhead.
//!
//! Two sets of numbers:
//! 1. **Native** — real `rdtsc` cycles on this machine for the three
//!    creation mechanisms (`uat-fiber`): Figure 4's uni-address path, a
//!    MassiveThreads-like pooled-stack spawn (the way both real
//!    runtimes here spawn), and a Cilk-like seq call — and the
//!    pooled-stack / uni-address ratio beside the paper's 1.10.
//! 2. **Modelled** — the calibrated cost-model values used by the
//!    simulator, for both of the paper's platforms.

use uat_base::CostModel;
use uat_bench::{deviation, paper};
use uat_fiber::{measure_creation, CreationStrategy};

fn main() {
    println!("# Table 2 — thread creation overhead (cycles)\n");

    println!("## Native measurement on this x86-64 host (rdtsc, min-of-batches)");
    println!(
        "{:<36} {:>10} {:>16} {:>10}",
        "strategy", "measured", "paper (Xeon)", "deviation"
    );
    let strategies = [
        (CreationStrategy::UniAddr, paper::CREATION_XEON[0].1),
        (CreationStrategy::StackPool, paper::CREATION_XEON[1].1),
        (CreationStrategy::SeqCall, paper::CREATION_XEON[2].1),
    ];
    let measured = strategies.map(|(s, _)| measure_creation(s, 5_000, 40));
    for ((s, reference), measured) in strategies.into_iter().zip(measured) {
        println!(
            "{:<36} {:>10.0} {:>16.0} {:>10}",
            s.name(),
            measured,
            reference,
            deviation(measured, reference)
        );
    }
    let (ratio, paper_ratio) = (measured[1] / measured[0], strategies[1].1 / strategies[0].1);
    println!(
        "{:<36} {:>9.2}x {:>15.2}x {:>10}",
        "pooled stack / uni-address",
        ratio,
        paper_ratio,
        deviation(ratio, paper_ratio)
    );

    println!("\n## Simulator cost model");
    for (label, cost, col) in [
        (
            "SPARC64IXfx (FX10 profile)",
            CostModel::fx10(),
            &paper::CREATION_SPARC,
        ),
        (
            "Xeon E5-2660 profile",
            CostModel::xeon(),
            &paper::CREATION_XEON,
        ),
    ] {
        let modelled = cost.spawn_cost().get() as f64;
        let reference = col[0].1;
        println!(
            "{:<36} {:>10.0} {:>16.0} {:>10}",
            label,
            modelled,
            reference,
            deviation(modelled, reference)
        );
    }

    println!(
        "\nNote: absolute native numbers depend on the host CPU; the paper's \
         qualitative result is the ordering (Cilk < uni-address <= MassiveThreads, \
         the last two within 1.1x) and the ~100-cycle magnitude of the \
         uni-address path on x86-64."
    );
}
