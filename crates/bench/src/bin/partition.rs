//! `partition` — flat vs multilevel RSB benchmark emitting
//! `BENCH_partition.json`.
//!
//! Sweeps bump-channel meshes of increasing size and partitions each
//! with the paper's flat recursive spectral bisection and the
//! multilevel RSB (coarsen → Fiedler on the small graph → project with
//! boundary refinement), reporting edge cut, communication volume,
//! balance, Fiedler iterations, and min-of-repeats partition wall time
//! per method. A topology-mapped multilevel run additionally reports
//! the hop-weighted communication volume on the simulated Delta mesh
//! against the identity placement.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_BENCH_REPEATS` | repeats per (size, method) | 3 |
//! | `EUL3D_BENCH_OUT` | output path | `BENCH_partition.json` |
//!
//! `--smoke` shrinks the sweep for CI; `--gate X` exits nonzero unless,
//! at the largest size, multilevel is at least `X` times faster than
//! flat RSB *and* its edge cut matches or beats flat's at every size
//! (the multilevel method is pointless if it trades the cut away for
//! speed).

use std::time::Instant;

use eul3d_bench::gate_arg;
use eul3d_mesh::gen::{bump_channel, BumpSpec};
use eul3d_partition::{
    FlatRsb, MultilevelRsb, PartitionOptions, PartitionPlan, Partitioner, RankMapping,
};

/// Edge-cut gate: multilevel must match or beat flat RSB's cut at every
/// size (the sweep is deterministic, so an exact bound is safe).
const CUT_TOLERANCE: f64 = 1.0;

/// Min-of-repeats partition time plus the (deterministic) plan.
fn time_method(
    p: &dyn Partitioner,
    nverts: usize,
    edges: &[[u32; 2]],
    opts: &PartitionOptions,
    repeats: usize,
) -> (f64, PartitionPlan) {
    let mut best = f64::INFINITY;
    let mut plan = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let got = p.partition(nverts, edges, opts).expect("valid options");
        best = best.min(t0.elapsed().as_secs_f64());
        plan = Some(got);
    }
    (best, plan.expect("at least one repeat"))
}

fn method_json(name: &str, seconds: f64, plan: &PartitionPlan) -> String {
    format!(
        "{{\"method\": \"{name}\", \"seconds\": {seconds:.6e}, \"edge_cut\": {}, \
         \"comm_volume\": {}, \"balance\": {:.4}, \"fiedler_iters\": {}}}",
        plan.edge_cut, plan.comm_volume, plan.balance, plan.fiedler_iterations
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = gate_arg(&args, "--gate");
    let repeats: usize = std::env::var("EUL3D_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_partition.json".to_string());

    let sizes: &[usize] = if smoke { &[32, 64] } else { &[48, 64, 96] };
    let nparts = 16;
    let seed = eul3d_core::env_seed(7);
    println!(
        "partition: bump channel nx sweep {sizes:?}, {nparts} parts, seed {seed}, {repeats} repeats"
    );

    let mut rows = Vec::new();
    let mut cut_ok = true;
    let mut last_speedup = 0.0f64;
    for &nx in sizes {
        let mesh = bump_channel(&BumpSpec::channel(nx));
        let (nverts, edges) = (mesh.nverts(), &mesh.edges);
        let flat_opts = PartitionOptions::new(nparts).lanczos_iters(40).seed(seed);
        let ml_opts = PartitionOptions::new(nparts)
            .lanczos_iters(40)
            .seed(seed)
            .mapping(RankMapping::Topology);

        let (tf, pf) = time_method(&FlatRsb, nverts, edges, &flat_opts, repeats);
        let (tm, pm) = time_method(&MultilevelRsb, nverts, edges, &ml_opts, repeats);
        let speedup = tf / tm;
        last_speedup = speedup;
        cut_ok &= (pm.edge_cut as f64) <= CUT_TOLERANCE * pf.edge_cut as f64;
        let hop_gain = pm.hop_volume_identity as f64 / pm.hop_volume.max(1) as f64;
        println!("  nx={nx:<3} ({nverts:>6} verts, {:>7} edges)", edges.len());
        println!(
            "    flat-rsb   {tf:>9.4} s  cut {:>6}  comm {:>6}  balance {:.3}  fiedler {:>6}",
            pf.edge_cut, pf.comm_volume, pf.balance, pf.fiedler_iterations
        );
        println!(
            "    multilevel {tm:>9.4} s  cut {:>6}  comm {:>6}  balance {:.3}  fiedler {:>6}  \
             speedup {speedup:.2}x",
            pm.edge_cut, pm.comm_volume, pm.balance, pm.fiedler_iterations
        );
        println!(
            "    topology mapping: hop volume {} vs identity {} ({hop_gain:.2}x less traffic-distance)",
            pm.hop_volume, pm.hop_volume_identity
        );
        rows.push(format!(
            "{{\"nx\": {nx}, \"nverts\": {nverts}, \"nedges\": {}, \"speedup\": {speedup:.4}, \
             \"hop_volume_topology\": {}, \"hop_volume_identity\": {}, \"methods\": [\n      {},\n      {}\n    ]}}",
            edges.len(),
            pm.hop_volume,
            pm.hop_volume_identity,
            method_json("flat-rsb", tf, &pf),
            method_json("multilevel", tm, &pm)
        ));
    }

    let json = format!(
        "{{\n  \"config\": {{\"sizes\": {sizes:?}, \"nparts\": {nparts}, \"seed\": {seed}, \
         \"repeats\": {repeats}, \"smoke\": {smoke}}},\n  \"cut_within_tolerance\": {cut_ok},\n  \
         \"speedup_at_largest\": {last_speedup:.4},\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    "),
    );
    std::fs::write(&out_path, json).expect("write BENCH_partition.json");
    println!("wrote {out_path}");

    if let Some(limit) = gate {
        assert!(
            cut_ok,
            "multilevel edge cut exceeds {CUT_TOLERANCE}x flat RSB's at some size"
        );
        assert!(
            last_speedup >= limit,
            "multilevel speedup {last_speedup:.2}x at the largest size misses the {limit:.2}x gate"
        );
        println!(
            "gate: cut within {CUT_TOLERANCE}x of flat at every size, \
             speedup {last_speedup:.2}x >= {limit:.2}x at the largest — ok"
        );
    }
}
