//! Block ownership against the one serial span: each of the seven edge
//! kernels, run block by block — every block's owner sweeping the
//! ascending list of edges that touch it, through a view restricted to
//! the block — must leave `to_bits` the targets one
//! `EdgeSpan::Range(0..ne)` call leaves. That is the argument in
//! `scatter.rs` ("why ownership keeps every bit"), checked.
//!
//! Lane width 1 hands the chunk loop one id at a time, so every edge
//! runs the `f64` instance of its kernel's tree; widths 4, 8 and 16 run
//! four-edge groups wherever the host has AVX2. The reference is always
//! the default width.
//!
//! The fused flow sweep (`flow_edges`) is held to the same standard
//! against the single-output kernels run one after another: every
//! dissipation kind, with and without convection and radii, at lane
//! widths 1, 3, 8 and 16, through an unrestricted view and through
//! views restricted to two and three vertex blocks.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;

use eul3d_kernels::{
    conv_flux_edges, first_order_diss_edges, flow_edges, jst_pass1_edges, jst_pass2_edges,
    radii_edges_soa, roe_diss_edges, smooth_accumulate_edges, Dissipation, EdgeSpan, FlowSweep,
    ScatterAccess, DEFAULT_LANES, NVAR,
};
use eul3d_mesh::Vec3;
use proptest::prelude::*;

const KERNELS: [&str; 7] = [
    "conv_flux",
    "radii",
    "jst_pass1",
    "jst_pass2",
    "first_order",
    "roe",
    "smooth_accumulate",
];
const GAMMA: f64 = 1.4;
const K2: f64 = 0.5;
const K4: f64 = 0.0625;
const KDISS: f64 = 0.06;

/// The dissipation kinds of the flow sweep, by the name of the kernel
/// that writes each alone (`None`: no dissipation target).
const DISSIPATIONS: [Option<&str>; 4] = [None, Some("jst_pass2"), Some("first_order"), Some("roe")];

/// One edge loop's inputs: a physical state (positive density and
/// pressure, so no kernel produces a NaN whose payload could differ
/// between the scalar and vector bodies) on an arbitrary edge list.
struct Case {
    n: usize,
    edges: Vec<[u32; 2]>,
    coef: Vec<Vec3>,
    w: Vec<f64>,
    p: Vec<f64>,
    lapl: Vec<f64>,
    nu: Vec<f64>,
}

impl Case {
    /// `u` holds at least `12 n + 3 |edges|` draws from `-1..1`.
    fn new(n: usize, edges: Vec<[u32; 2]>, u: &[f64]) -> Case {
        let (vert, edge) = u.split_at(12 * n);
        let mut w = vec![0.0; NVAR * n];
        for i in 0..n {
            w[i] = 1.0 + 0.5 * vert[i];
            for c in 1..4 {
                w[c * n + i] = 0.8 * vert[c * n + i];
            }
            w[4 * n + i] = 2.5 + vert[4 * n + i];
        }
        let coef = (0..edges.len())
            .map(|e| Vec3::new(edge[3 * e], edge[3 * e + 1], 0.25 + edge[3 * e + 2]))
            .collect();
        Case {
            n,
            edges,
            coef,
            w,
            p: vert[5 * n..6 * n].iter().map(|x| 0.7 + 0.3 * x).collect(),
            lapl: vert[6 * n..11 * n].to_vec(),
            nu: vert[11 * n..12 * n].iter().map(|x| x.abs()).collect(),
        }
    }

    /// Plane counts of a kernel's targets.
    fn targets(kernel: &str) -> &'static [usize] {
        match kernel {
            "radii" => &[1],
            "jst_pass1" => &[NVAR, 2],
            _ => &[NVAR],
        }
    }

    /// `kernel` over `span` through `s`.
    fn sweep(&self, kernel: &str, span: &EdgeSpan<'_>, s: &ScatterAccess, lanes: usize) {
        let (n, edges, coef) = (self.n, &self.edges[..], &self.coef[..]);
        let (w, p) = (&self.w[..], &self.p[..]);
        // SAFETY: single-threaded; every plane is sized `nc * n`, every
        // endpoint is `< n`, every span id indexes `edges` and `coef`,
        // and the targets are sized by `Case::targets`.
        unsafe {
            match kernel {
                "conv_flux" => conv_flux_edges(span, edges, coef, w, p, n, s, lanes),
                "radii" => radii_edges_soa(span, edges, coef, GAMMA, w, p, n, s, lanes),
                "jst_pass1" => jst_pass1_edges(span, edges, w, p, n, s, lanes),
                "jst_pass2" => jst_pass2_edges(
                    span, edges, coef, GAMMA, K2, K4, w, p, &self.lapl, &self.nu, n, s, lanes,
                ),
                "first_order" => {
                    first_order_diss_edges(span, edges, coef, GAMMA, KDISS, w, p, n, s, lanes)
                }
                "roe" => roe_diss_edges(span, edges, coef, GAMMA, w, p, n, s, lanes),
                _ => smooth_accumulate_edges(span, edges, w, n, s, lanes),
            }
        }
    }

    /// A kernel's targets after `f` swept them from zero, as bits.
    fn run(&self, kernel: &str, f: impl Fn(&ScatterAccess)) -> Vec<Vec<u64>> {
        let mut bufs: Vec<Vec<f64>> = Case::targets(kernel)
            .iter()
            .map(|planes| vec![0.0; planes * self.n])
            .collect();
        {
            let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            f(&ScatterAccess::new(&mut refs));
        }
        let bits = |b: &Vec<f64>| b.iter().map(|x| x.to_bits()).collect();
        bufs.iter().map(bits).collect()
    }

    /// `blocks` of `0..n`, each with the ascending ids of the edges
    /// touching it.
    fn owners(&self, blocks: &[Range<usize>]) -> Vec<(Range<usize>, Vec<u32>)> {
        blocks
            .iter()
            .map(|block| {
                let touching = (0u32..)
                    .zip(&self.edges)
                    .filter(|(_, e)| e.iter().any(|&v| block.contains(&(v as usize))))
                    .map(|(id, _)| id)
                    .collect();
                (block.clone(), touching)
            })
            .collect()
    }

    /// The flow sweep writing `diss` (by kernel name), `conv` and `radii`.
    fn flow(&self, diss: Option<&str>, conv: bool, radii: bool) -> FlowSweep<'_> {
        let diss = match diss {
            None => Dissipation::None,
            Some("jst_pass2") => Dissipation::Jst {
                k2: K2,
                k4: K4,
                lapl: &self.lapl,
                nu: &self.nu,
            },
            Some("first_order") => Dissipation::FirstOrder { kdiss: KDISS },
            Some(_) => Dissipation::Roe,
        };
        FlowSweep {
            coef: &self.coef,
            gamma: GAMMA,
            w: &self.w,
            p: &self.p,
            n: self.n,
            diss,
            conv,
            radii,
        }
    }

    /// The fused sweep of `f` as bits of its packed targets: one span
    /// through an unrestricted view (`blocks` empty), or one owner sweep
    /// per block.
    fn fused(&self, f: &FlowSweep<'_>, blocks: &[Range<usize>], lanes: usize) -> Vec<Vec<u64>> {
        let sizes = [
            (!matches!(f.diss, Dissipation::None), NVAR),
            (f.conv, NVAR),
            (f.radii, 1),
        ];
        let mut bufs: Vec<Vec<f64>> = sizes
            .iter()
            .filter(|(on, _)| *on)
            .map(|(_, planes)| vec![0.0; planes * self.n])
            .collect();
        {
            let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            let s = ScatterAccess::new(&mut refs);
            // SAFETY: single-threaded; planes sized `nc * n`, endpoints
            // `< n`, span ids index `edges` and `coef`, targets packed
            // and sized as `FlowSweep` documents.
            unsafe {
                if blocks.is_empty() {
                    let all = EdgeSpan::Range(0..self.edges.len());
                    flow_edges(&all, &self.edges, f, &s, lanes);
                }
                for (block, touching) in self.owners(blocks) {
                    let own = s.restricted(block);
                    flow_edges(&EdgeSpan::Ids(&touching), &self.edges, f, &own, lanes);
                }
            }
        }
        let bits = |b: &Vec<f64>| b.iter().map(|x| x.to_bits()).collect();
        bufs.iter().map(bits).collect()
    }

    /// The same targets from the single-output kernels, one serial
    /// sweep after another.
    fn unfused(&self, diss: Option<&str>, conv: bool, radii: bool) -> Vec<Vec<u64>> {
        let kernels = [diss, conv.then_some("conv_flux"), radii.then_some("radii")];
        kernels
            .into_iter()
            .flatten()
            .flat_map(|kernel| {
                self.run(kernel, |s| {
                    let all = EdgeSpan::Range(0..self.edges.len());
                    self.sweep(kernel, &all, s, DEFAULT_LANES)
                })
            })
            .collect()
    }

    /// Every fused instance through an unrestricted view and through
    /// each split of `splits`, against the unfused kernels.
    fn check_fused(&self, splits: &[Vec<Range<usize>>], lanes: usize) {
        for diss in DISSIPATIONS {
            for (conv, radii) in [(false, false), (true, false), (false, true), (true, true)] {
                if diss.is_none() && !conv && !radii {
                    continue;
                }
                let want = self.unfused(diss, conv, radii);
                let f = self.flow(diss, conv, radii);
                let what = format!("{diss:?}, conv {conv}, radii {radii}, lanes {lanes}");
                assert_eq!(self.fused(&f, &[], lanes), want, "{what}");
                for blocks in splits {
                    assert_eq!(self.fused(&f, blocks, lanes), want, "{what}: {blocks:?}");
                }
            }
        }
    }

    /// Every kernel: one serial span against one owner sweep per block.
    fn check(&self, blocks: &[Range<usize>], lanes: usize) {
        for kernel in KERNELS {
            let serial = self.run(kernel, |s| {
                let all = EdgeSpan::Range(0..self.edges.len());
                self.sweep(kernel, &all, s, DEFAULT_LANES)
            });
            let owned = self.run(kernel, |s| {
                for (block, touching) in self.owners(blocks) {
                    let own = s.restricted(block);
                    self.sweep(kernel, &EdgeSpan::Ids(&touching), &own, lanes);
                }
            });
            assert_eq!(owned, serial, "{kernel}: blocks {blocks:?}, lanes {lanes}");
        }
    }
}

/// `0..n` cut at `cuts` (clamped to `n`, any order, repeats allowed):
/// `cuts.len() + 1` contiguous blocks, some possibly empty.
fn blocks_of(n: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn owner_sweeps_leave_the_serial_bits(
        n in 1usize..47,
        raw in collection::vec((0u32..1000, 0u32..1000), 0..160),
        sorted in 0u8..2,
        cuts in collection::vec(0usize..48, 0..5),
        lanes in 0usize..4,
        u in collection::vec(-1.0f64..1.0, 12 * 47 + 3 * 160),
    ) {
        // Self-loops stay in: a degenerate edge adds and subtracts at
        // one slot, in that order, under either sweep.
        let mut edges: Vec<[u32; 2]> =
            raw.iter().map(|&(a, b)| [a % n as u32, b % n as u32]).collect();
        if sorted == 1 {
            edges.sort_unstable();
        }
        let case = Case::new(n, edges, &u);
        case.check(&blocks_of(n, &cuts), [1, 4, 8, 16][lanes]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn one_flow_sweep_leaves_the_bits_of_one_sweep_per_output(
        n in 1usize..47,
        raw in collection::vec((0u32..1000, 0u32..1000), 0..160),
        sorted in 0u8..2,
        cuts in (0usize..48, 0usize..48),
        lanes in 0usize..4,
        u in collection::vec(-1.0f64..1.0, 12 * 47 + 3 * 160),
    ) {
        let mut edges: Vec<[u32; 2]> =
            raw.iter().map(|&(a, b)| [a % n as u32, b % n as u32]).collect();
        if sorted == 1 {
            edges.sort_unstable();
        }
        let case = Case::new(n, edges, &u);
        let splits = [blocks_of(n, &[cuts.0]), blocks_of(n, &[cuts.0, cuts.1])];
        case.check_fused(&splits, [1, 3, 8, 16][lanes]);
    }
}

/// A vertex order with no locality: every edge joins the two halves, so
/// both owners compute every edge and each keeps one endpoint of it.
#[test]
fn every_edge_cut_is_still_the_serial_sweep() {
    let (half, n) = (19, 38);
    let edges: Vec<[u32; 2]> = (0..150u32)
        .map(|e| {
            let (a, b) = (e * 7 % half, half + e * 11 % half);
            if e % 3 == 0 {
                [b, a]
            } else {
                [a, b]
            }
        })
        .collect();
    let u: Vec<f64> = (0..12 * n + 3 * edges.len())
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 51.0)
        .collect();
    let case = Case::new(n, edges, &u);
    let halves = [0..half as usize, half as usize..n];
    for b in &halves {
        let cut = |e: &[u32; 2]| b.contains(&(e[0] as usize)) != b.contains(&(e[1] as usize));
        assert!(case.edges.iter().all(cut));
    }
    let thirds = blocks_of(n, &[13, 26]);
    for lanes in [1, 4, 8, 16] {
        case.check(&halves, lanes);
    }
    for lanes in [1, 3, 8, 16] {
        case.check_fused(&[halves.to_vec(), thirds.clone()], lanes);
    }
}

/// A degenerate face (`η = 0`) inside a four-edge group: Roe's vector
/// instance must leave the bits of width 1 — zeros for that edge, so the
/// sweep without it — while its three neighbours' lanes are computed.
#[test]
fn a_degenerate_roe_face_in_a_group_adds_zeros() {
    let n = 6;
    let edges: Vec<[u32; 2]> = (0..9u32).map(|e| [e % 6, (e * 5 + 1) % 6]).collect();
    let u: Vec<f64> = (0..12 * n + 3 * edges.len())
        .map(|i| ((i * 29 % 97) as f64 - 48.0) / 49.0)
        .collect();
    let mut case = Case::new(n, edges, &u);
    case.coef[1] = Vec3::ZERO;
    let roe =
        |span: &EdgeSpan<'_>, lanes: usize| case.run("roe", |s| case.sweep("roe", span, s, lanes));
    let all = EdgeSpan::Range(0..case.edges.len());
    let scalar = roe(&all, 1);
    let without: Vec<u32> = (0..case.edges.len() as u32).filter(|&e| e != 1).collect();
    assert_eq!(
        roe(&EdgeSpan::Ids(&without), 1),
        scalar,
        "the face adds zeros"
    );
    assert!(
        scalar[0].iter().any(|&b| b != 0),
        "the other faces add something"
    );
    for lanes in [4, 8] {
        assert_eq!(roe(&all, lanes), scalar, "lanes {lanes}");
    }
    // Fused with convection and radii, which read the zero face too.
    let splits = [blocks_of(n, &[3]), blocks_of(n, &[2, 4])];
    for lanes in [1, 3, 8, 16] {
        case.check_fused(&splits, lanes);
    }
}
