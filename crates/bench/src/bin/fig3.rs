//! **Figure 3** — The unstructured mesh family. The paper shows the
//! second-finest mesh of the multigrid sequence (106,064 nodes / 575,986
//! tets; finest 804,056 nodes / ~4.5M tets — ratios ≈ 7.6x nodes, 7.8x
//! tets between levels).
//!
//! Prints the per-level statistics table and exports the second-finest
//! mesh (like the paper's figure) plus the finest as legacy VTK.

use eul3d_bench::{base, configure, out_dir};
use eul3d_core::Strategy;
use eul3d_mesh::stats::MeshStats;
use eul3d_mesh::vtk::write_vtk_file;
use eul3d_mesh::MeshSequence;
use eul3d_perf::TextTable;

fn main() {
    let shows = ("run.coarsening", "the mesh sequence fig3 shows");
    let (rc, ()) = configure(base(1, Strategy::WCycle), &[shows], |_| ());
    let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
    println!(
        "fig3: bump-channel multigrid sequence, nx={} fine",
        rc.mesh.nx
    );

    let mut t = TextTable::new(&[
        "level", "nodes", "tets", "edges", "bfaces", "max deg", "closure", "valid",
    ]);
    let mut stats = Vec::new();
    for (l, mesh) in seq.meshes.iter().enumerate() {
        let s = MeshStats::compute(mesh);
        t.row(&[
            l.to_string(),
            s.nverts.to_string(),
            s.ntets.to_string(),
            s.nedges.to_string(),
            s.nbfaces.to_string(),
            s.max_vertex_degree.to_string(),
            format!("{:.1e}", s.closure_max),
            s.is_valid().to_string(),
        ]);
        stats.push(s);
    }
    println!("{}", t.render());

    if stats.len() >= 2 {
        println!(
            "level-to-level node ratio: {:.1}x (paper: 804,056 / 106,064 = 7.6x)",
            stats[0].nverts as f64 / stats[1].nverts as f64
        );
        println!(
            "level-to-level tet ratio:  {:.1}x (paper: ~4.5M / 575,986 = 7.8x)",
            stats[0].ntets as f64 / stats[1].ntets as f64
        );
    }
    println!(
        "coarse-grid storage overhead: {:.1}% of fine-grid vertices (paper: ~33% incl. transfer coefficients)",
        100.0 * seq.coarse_overhead_fraction()
    );

    let out = out_dir();
    let finest = out.join("fig3_finest.vtk");
    write_vtk_file(&finest, &seq.meshes[0], &[]).expect("vtk export");
    println!("wrote {}", finest.display());
    if seq.meshes.len() >= 2 {
        let second = out.join("fig3_second_finest.vtk");
        write_vtk_file(&second, &seq.meshes[1], &[]).expect("vtk export");
        println!("wrote {} (the mesh the paper displays)", second.display());
    }
}
