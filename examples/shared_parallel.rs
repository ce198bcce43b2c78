//! The shared-memory workflow of §3: colour the edge loops into
//! recurrence-free groups (what the C90 model prices), run the solve on
//! a thread team in which each member owns a block of the vertices, and
//! verify the team computes the sequential solver's bits.
//!
//! ```sh
//! cargo run --release --example shared_parallel
//! ```

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::MeshSequence;
use eul3d::partition::color_edges;
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn main() {
    let spec = BumpSpec {
        nx: 24,
        ny: 9,
        nz: 7,
        jitter: 0.12,
        ..BumpSpec::default()
    };
    let mesh = bump_channel(&spec);
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };

    // The §3.1 decomposition the machine model charges: colour groups
    // with no data recurrences.
    let coloring = color_edges(&mesh);
    println!(
        "{} edges in {} colour groups (paper: 'typically 20 to 30'); smallest group {} edges",
        mesh.nedges(),
        coloring.ncolors(),
        coloring.min_group_len()
    );
    let ncpus = 4;
    println!(
        "subgroup vector length at {ncpus} threads: ~{} edges per launch",
        mesh.nedges() / coloring.ncolors() / ncpus
    );

    // Sequential reference: the single-grid strategy on the one mesh.
    let one_level = || MeshSequence::from_meshes(vec![mesh.clone()]);
    let mut serial = MultigridSolver::new(one_level(), cfg, Strategy::SingleGrid);
    let hs = serial.solve(20);

    // The resident team (block ownership).
    let mut shared = MultigridSolver::new_shared(one_level(), cfg, Strategy::SingleGrid, ncpus)
        .expect("edge colouring must validate");
    let t0 = std::time::Instant::now();
    let hp = shared.solve(20);
    println!(
        "20 shared-memory cycles on {ncpus} threads: {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    // "The solution and convergence rates obtained were, of course,
    // identical" — here literally: every slot is added into in the
    // serial loop's edge order.
    let mut worst: f64 = 0.0;
    for (a, b) in hs.iter().zip(&hp) {
        worst = worst.max((a - b).abs() / a.max(1e-30));
    }
    println!("max relative residual-history deviation serial vs shared: {worst:.2e} (same bits)");
    println!(
        "final residual: serial {:.6e}, shared {:.6e}",
        hs.last().unwrap(),
        hp.last().unwrap()
    );
}
