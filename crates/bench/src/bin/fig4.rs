//! **Figure 4** — Computed Mach contours of the transonic flow. "Good
//! shock resolution is observed."
//!
//! Converges the W-cycle solver on the transonic bump case, exports the
//! Mach field as VTK (contour it in ParaView to reproduce the figure),
//! and prints the textual diagnostics: Mach band occupancy, the
//! supersonic pocket, and the floor-line Mach distribution whose sharp
//! drop is the captured shock.

use eul3d_bench::{base, configure, exit_2, finite_or_exit, out_dir};
use eul3d_core::postproc::{band_histogram, crosses, mach_field, probe_line};
use eul3d_core::{MultigridSolver, Strategy};
use eul3d_mesh::vtk::write_vtk_file;
use eul3d_mesh::Vec3;

fn main() {
    let (rc, ()) = configure(base(150, Strategy::WCycle), &[], |_| ());
    let cfg = rc.solver;
    println!(
        "fig4: transonic bump, M∞={}, {}, {} cycles, nx={}",
        cfg.mach,
        rc.strategy.label(),
        rc.cycles,
        rc.mesh.nx
    );
    let mut mg = MultigridSolver::for_run(&rc, 0).unwrap_or_else(|e| exit_2(e));
    let hist = mg.solve(rc.cycles);
    finite_or_exit(&hist, &format!("fig4 {}", rc.strategy.label()));
    println!(
        "converged {:.2} orders (residual {:.3e} -> {:.3e})",
        (hist[0] / hist.last().unwrap()).log10(),
        hist[0],
        hist.last().unwrap()
    );

    let mesh = mg.grids.fine();
    let mach = mach_field(cfg.gamma, mg.state(), mesh.nverts());
    let mmin = mach.iter().cloned().fold(f64::INFINITY, f64::min);
    let mmax = mach.iter().cloned().fold(0.0f64, f64::max);
    println!("Mach range: [{mmin:.3}, {mmax:.3}]");
    if crosses(&mach, 1.0) {
        println!("transonic: supersonic pocket present (M > 1 over the bump)");
    } else {
        println!("note: flow is entirely subsonic at these settings");
    }

    // Textual contour bands.
    println!("\nMach band occupancy (the 'contour plot'):");
    let nb = 12;
    let bands = band_histogram(&mach, mmin, mmax + 1e-12, nb);
    let peak = *bands.iter().max().unwrap() as f64;
    for (b, &count) in bands.iter().enumerate() {
        let lo = mmin + (mmax - mmin) * b as f64 / nb as f64;
        let hi = mmin + (mmax - mmin) * (b + 1) as f64 / nb as f64;
        let bar = "#".repeat((50.0 * count as f64 / peak) as usize);
        println!("  M {lo:.2}-{hi:.2} {count:6} {bar}");
    }

    // Floor-line Mach distribution: acceleration over the bump, then the
    // shock (sharp drop) on the aft part.
    println!("\nMach just above the bump surface (x from -0.5 to 1.5):");
    let line = probe_line(
        mesh,
        &mach,
        Vec3::new(-0.5, 0.06, 0.35),
        Vec3::new(1.5, 0.06, 0.35),
        33,
    );
    for (t, m) in &line {
        let x = -0.5 + 2.0 * t;
        println!("  x={x:6.2}  M={m:.3} {}", "*".repeat((m * 30.0) as usize));
    }

    let out = out_dir().join("fig4_mach.vtk");
    let pressure = eul3d_core::postproc::pressure_field(cfg.gamma, mg.state(), mesh.nverts());
    let cp = eul3d_core::postproc::cp_field(cfg.gamma, cfg.mach, mg.state(), mesh.nverts());
    write_vtk_file(
        &out,
        mesh,
        &[("mach", &mach), ("pressure", &pressure), ("cp", &cp)],
    )
    .expect("vtk export");
    println!(
        "\nwrote {} (contour 'mach' to reproduce Figure 4)",
        out.display()
    );
}
