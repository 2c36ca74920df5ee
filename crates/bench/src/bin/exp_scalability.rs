//! **E6 / Figure 6 — scalability.**
//!
//! SRA runtime and quality as the fleet grows: the serial engine and the
//! cooperative decomposed solver. Iterations are fixed so runtime growth
//! reflects per-iteration cost — O(machines) repair scans for the serial
//! mode, O(machines / k) within each of the k partitions for the
//! decomposed mode.

use rex_bench::{f4, pct, scaled, Table};
use rex_core::{solve, SraConfig};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

fn main() {
    let sizes: Vec<(usize, usize)> = if rex_bench::quick() {
        vec![(16, 160), (32, 320)]
    } else {
        // The sweep doubles fleet size per tier; 400/4000 already shows the
        // scaling exponent, and the next doubling dominates the whole
        // suite's wall time on shared CPUs.
        vec![(50, 500), (100, 1_000), (200, 2_000), (400, 4_000)]
    };
    let iters = scaled(4_000) as u64;

    let mut t = Table::new(&[
        "machines",
        "shards",
        "mode",
        "final peak",
        "improvement",
        "iterations",
        "time (s)",
        "iters/s",
    ]);

    for &(m, s) in &sizes {
        let inst = generate(&SynthConfig {
            n_machines: m,
            n_exchange: (m / 10).max(1),
            n_shards: s,
            stringency: 0.8,
            family: DemandFamily::Correlated,
            placement: Placement::Hotspot(0.4),
            seed: 17,
            ..Default::default()
        })
        .expect("generate");

        // (label, partitions): both modes get the same iteration budget.
        for (label, partitions) in [("serial", 0), ("decomposed-8", 8)] {
            let res = solve(
                &inst,
                &SraConfig {
                    partitions,
                    ..rex_bench::sra_cfg(iters, 17)
                },
            )
            .expect("solve");
            let secs = res.elapsed.as_secs_f64();
            t.row(vec![
                m.to_string(),
                s.to_string(),
                label.to_string(),
                f4(res.final_report.peak),
                pct(res.peak_improvement()),
                res.iterations.to_string(),
                format!("{secs:.2}"),
                format!("{:.0}", res.iterations as f64 / secs.max(1e-9)),
            ]);
        }
    }

    t.print("E6 / Figure 6 — SRA scalability (fixed iterations per mode)");
    println!("\nSeries to plot: x = machines, y = time (log-log), one line per mode.");
    println!("Expected shape: near-linear growth for the serial mode; the decomposed solver's per-iteration cost grows with machines/k, so its iters/s stays an order of magnitude above the serial engine's at equal quality (within ~1% peak).");
}
