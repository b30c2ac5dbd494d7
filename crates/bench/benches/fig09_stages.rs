//! Fig. 9: run time of the individual MapReduce stages (map, shuffle,
//! sort, reduce) summed across all iterations, for PageRank.
//!
//! Paper findings reproduced here:
//! * iterMR cuts map time (no structure parsing) and shuffle time (no
//!   structure shuffling) vs plainMR;
//! * i2MR cuts map/shuffle/sort much further (only delta-affected
//!   instances run), but its **reduce stage exceeds iterMR's** — the cost
//!   of accessing and updating the MRBGraph file in the MRBG-Store.
//!
//! The paper inflates ClueWeb node ids to long strings so the structure
//! data dominates; we reproduce that regime with a padded PageRank spec
//! whose structure values carry the same per-edge payload.

use i2mr_bench::{banner, scratch, sized};
use i2mr_common::metrics::Stage;
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iter_engine::build_partitioned;
use i2mr_core::iterative::{DependencyKind, IterParams, IterativeSpec, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_datagen::delta::{graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::job::MapReduceJob;
use i2mr_mapred::partition::HashPartitioner;
use i2mr_mapred::types::{Emitter, Values};
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::runtime::StoreManager;

/// PageRank whose structure values carry string padding per out-edge — the
/// paper's "substituted all node identifiers with longer strings" device.
struct PaddedRank;

type PaddedSv = (Vec<u64>, String);

impl IterativeSpec for PaddedRank {
    type SK = u64;
    type SV = PaddedSv;
    type DK = u64;
    type DV = f64;
    type V2 = f64;

    fn project(&self, sk: &u64) -> u64 {
        *sk
    }
    fn map(&self, _sk: &u64, sv: &PaddedSv, _dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
        let links = &sv.0;
        if links.is_empty() {
            return;
        }
        let share = dv / links.len() as f64;
        for j in links {
            out.emit(*j, share);
        }
    }
    fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
        0.15 + 0.85 * values.iter().sum::<f64>()
    }
    fn init(&self, _dk: &u64) -> f64 {
        1.0
    }
    fn difference(&self, curr: &f64, prev: &f64) -> f64 {
        (curr - prev).abs()
    }
    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

fn pad_graph(graph: &[(u64, Vec<u64>)]) -> Vec<(u64, PaddedSv)> {
    graph
        .iter()
        .map(|(v, outs)| {
            let pad = "x".repeat(24 * outs.len().max(1));
            (*v, (outs.clone(), pad))
        })
        .collect()
}

fn print_stages(name: &str, st: &i2mr_common::metrics::StageTimes) {
    println!(
        "   {:<22} map {:>8.1}ms  shuffle {:>8.1}ms  sort {:>8.1}ms  reduce {:>8.1}ms  compact {:>6.1}ms",
        name,
        st.map.as_secs_f64() * 1e3,
        st.shuffle.as_secs_f64() * 1e3,
        st.sort.as_secs_f64() * 1e3,
        st.reduce.as_secs_f64() * 1e3,
        st.compact.as_secs_f64() * 1e3,
    );
}

fn main() {
    let iters = 10u64;
    banner(
        "Fig. 9",
        "per-stage time of PageRank (summed across iterations)",
        &format!(
            "{}-vertex padded graph, {} iterations, 10% delta for i2MR",
            sized(2000),
            iters
        ),
    );
    let cfg = JobConfig::symmetric(4);
    let pool = WorkerPool::new(4);
    let graph = GraphGen::new(sized(2000), sized(16_000), 0x99).generate();
    let padded = pad_graph(&graph);

    // --------------------------- plainMR ---------------------------
    // Map input <i, Ni|Ri> with the padding travelling through shuffle.
    let mut plain_stages = i2mr_common::metrics::StageTimes::default();
    {
        type Rec = (PaddedSv, f64);
        let mapper = |i: &u64, rec: &Rec, out: &mut Emitter<u64, Rec>| {
            let ((links, pad), rank) = rec;
            out.emit(*i, ((links.clone(), pad.clone()), f64::NAN));
            if !links.is_empty() {
                let share = rank / links.len() as f64;
                for j in links {
                    out.emit(*j, ((Vec::new(), String::new()), share));
                }
            }
        };
        let reducer = |j: &u64, vs: Values<u64, Rec>, out: &mut Emitter<u64, Rec>| {
            let mut sv: PaddedSv = (Vec::new(), String::new());
            let mut sum = 0.0;
            for (s, share) in vs {
                if share.is_nan() {
                    sv = s.clone();
                } else {
                    sum += share;
                }
            }
            out.emit(*j, (sv, 0.15 + 0.85 * sum));
        };
        let mut input: Vec<(u64, Rec)> = padded
            .iter()
            .map(|(i, sv)| (*i, (sv.clone(), 1.0)))
            .collect();
        for it in 0..iters {
            let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
            let run = job.run(&pool, &input, it).expect("plain iteration");
            plain_stages += run.metrics.stages;
            input = run.flat_output();
            input.sort_by_key(|(k, _)| *k);
        }
    }

    // --------------------------- iterMR ---------------------------
    let spec = PaddedRank;
    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: iters,
            epsilon: 0.0,
            preserve: PreserveMode::None,
        })
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, cfg.n_reduce, padded.clone());
    let report = session.run_initial(&mut data).expect("itermr");
    let iter_stages = report.total_metrics().stages;

    // --------------------------- i2MR incremental ---------------------------
    // Converged initial run with preservation, then a 10% delta refresh.
    let dir = scratch("fig9");
    let stores = StoreManager::create(&pool, &dir, cfg.n_reduce, Default::default()).unwrap();
    let init_session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .stores_ref(&stores)
        .build()
        .unwrap();
    let mut conv = build_partitioned(&spec, cfg.n_reduce, padded.clone());
    init_session.run_initial(&mut conv).expect("initial");

    let delta_plain = graph_delta(&graph, DeltaSpec::ten_percent(0xF9));
    // Convert the unpadded delta into the padded record space.
    let mut delta = i2mr_core::delta::Delta::new();
    for r in delta_plain.records() {
        let pad = "x".repeat(24 * r.value.len().max(1));
        match r.op {
            i2mr_core::delta::Op::Insert => delta.insert(r.key, (r.value.clone(), pad)),
            i2mr_core::delta::Op::Delete => delta.delete(r.key, (r.value.clone(), pad)),
        }
    }
    let incr_session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .incr(IncrParams {
            filter_threshold: Some(1e-3),
            convergence_epsilon: 1e-5,
            max_iterations: iters,
            ..Default::default()
        })
        .stores_ref(&stores)
        .build()
        .unwrap();
    let incr_report = incr_session
        .run_incremental(&mut conv, &delta)
        .expect("incremental");
    let incr_stages = incr_report.total_metrics().stages;

    println!();
    print_stages("PlainMR recomp", &plain_stages);
    print_stages("IterMR recomp", &iter_stages);
    print_stages("i2MR incr comp", &incr_stages);

    // Shape checks (paper §8.3).
    let mut ok = true;
    for (stage, label) in [
        (Stage::Map, "map"),
        (Stage::Shuffle, "shuffle"),
        (Stage::Sort, "sort"),
    ] {
        let p = plain_stages.get(stage).as_secs_f64();
        let i = incr_stages.get(stage).as_secs_f64();
        if i < p {
            println!("   shape: i2MR {label} < plainMR {label} : OK");
        } else {
            println!("   shape: i2MR {label} ({i:.4}s) < plainMR {label} ({p:.4}s) : MISMATCH");
            ok = false;
        }
    }
    let shuffle_save = 1.0
        - iter_stages.get(Stage::Shuffle).as_secs_f64()
            / plain_stages.get(Stage::Shuffle).as_secs_f64();
    println!(
        "   iterMR shuffle saving vs plainMR: {:.0}% (paper: 74%)",
        shuffle_save * 100.0
    );
    if iter_stages.get(Stage::Shuffle) < plain_stages.get(Stage::Shuffle) {
        println!("   shape: iterMR shuffle < plainMR shuffle : OK");
    } else {
        println!("   shape: iterMR shuffle < plainMR shuffle : MISMATCH");
        ok = false;
    }
    assert!(ok, "Fig. 9 shape checks failed");
}
