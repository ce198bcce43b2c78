//! Synthetic unstructured-mesh generators.
//!
//! The paper's meshes come from a sequential advancing-front generator we
//! do not have; these generators produce the same *object* at the solver
//! interface — an irregular tetrahedral mesh with an edge list, dual
//! metrics and tagged boundary faces — from a graded, jittered lattice
//! split into tetrahedra (Kuhn subdivision). Jittering the interior
//! vertices de-structures the connectivity so that indirect addressing,
//! colouring, partitioning and reordering behave like they do on a truly
//! unstructured mesh.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::mesh::TetMesh;
use crate::types::BcKind;
use crate::vec3::{tet_volume, Vec3};

/// The six Kuhn tetrahedra of the unit cube: each is
/// `(c0, c0+e_p0, c0+e_p0+e_p1, c111)` for a permutation `(p0,p1,p2)` of
/// the axes. Conforming across adjacent cells.
const KUHN_PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Graded 1-D point distribution on `[a, b]` with `n + 1` points,
/// clustered around relative position `uc ∈ [0, 1]` with strength
/// `s ∈ [0, 1)` (0 = uniform). Monotone for `s < 1`.
pub fn cluster1d(n: usize, a: f64, b: f64, uc: f64, s: f64) -> Vec<f64> {
    assert!(s < 1.0, "clustering strength must be < 1 for monotonicity");
    let tau = std::f64::consts::TAU;
    (0..=n)
        .map(|i| {
            let u = i as f64 / n as f64;
            let w = u - s / tau * ((u - uc) * tau).sin() + s / tau * ((0.0 - uc) * tau).sin();
            // Normalize so w(0) = 0 and w(1) = 1 exactly.
            let w0 = 0.0;
            let w1 = 1.0 - s / tau * ((1.0 - uc) * tau).sin() + s / tau * ((0.0 - uc) * tau).sin();
            a + (b - a) * (w - w0) / w1
        })
        .collect()
}

/// Raw lattice output before metric construction.
struct Lattice {
    coords: Vec<Vec3>,
    tets: Vec<[u32; 4]>,
    nx: usize,
    ny: usize,
    nz: usize,
}

/// Tensor-product lattice split into 6 tets per cell.
#[allow(clippy::needless_range_loop)] // 3-D index arithmetic is clearest explicit
fn lattice(xs: &[f64], ys: &[f64], zs: &[f64]) -> Lattice {
    let (nx, ny, nz) = (xs.len() - 1, ys.len() - 1, zs.len() - 1);
    let idx = |i: usize, j: usize, k: usize| -> u32 { (i + (nx + 1) * (j + (ny + 1) * k)) as u32 };
    let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
    for k in 0..=nz {
        for j in 0..=ny {
            for i in 0..=nx {
                coords.push(Vec3::new(xs[i], ys[j], zs[k]));
            }
        }
    }
    let mut tets = Vec::with_capacity(6 * nx * ny * nz);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let base = [i, j, k];
                for perm in &KUHN_PERMS {
                    let mut c = base;
                    let v0 = idx(c[0], c[1], c[2]);
                    c[perm[0]] += 1;
                    let v1 = idx(c[0], c[1], c[2]);
                    c[perm[1]] += 1;
                    let v2 = idx(c[0], c[1], c[2]);
                    let v3 = idx(i + 1, j + 1, k + 1);
                    tets.push([v0, v1, v2, v3]);
                }
            }
        }
    }
    Lattice {
        coords,
        tets,
        nx,
        ny,
        nz,
    }
}

/// Displace interior lattice vertices by a random fraction of the local
/// spacing, then repair any tetrahedron a displacement would invert by
/// reverting its vertices. Deterministic for a given seed.
fn jitter_interior(lat: &mut Lattice, xs: &[f64], ys: &[f64], zs: &[f64], jitter: f64, seed: u64) {
    if jitter == 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (nx, ny, nz) = (lat.nx, lat.ny, lat.nz);
    let idx = |i: usize, j: usize, k: usize| i + (nx + 1) * (j + (ny + 1) * k);
    let original = lat.coords.clone();
    let spacing = |grid: &[f64], i: usize| -> f64 {
        let left = grid[i] - grid[i - 1];
        let right = grid[i + 1] - grid[i];
        left.min(right)
    };
    for k in 1..nz {
        for j in 1..ny {
            for i in 1..nx {
                let h = Vec3::new(spacing(xs, i), spacing(ys, j), spacing(zs, k));
                let d = Vec3::new(
                    rng.random_range(-1.0..1.0) * h.x,
                    rng.random_range(-1.0..1.0) * h.y,
                    rng.random_range(-1.0..1.0) * h.z,
                ) * jitter;
                lat.coords[idx(i, j, k)] += d;
            }
        }
    }
    // Repair pass: revert the vertices of any tet that became degenerate
    // or inverted. A few sweeps suffice since reverting only shrinks the
    // displacement field toward the (valid) unjittered lattice.
    for _ in 0..4 {
        let mut bad = false;
        for t in &lat.tets {
            let v = tet_volume(
                lat.coords[t[0] as usize],
                lat.coords[t[1] as usize],
                lat.coords[t[2] as usize],
                lat.coords[t[3] as usize],
            );
            // Kuhn tets have |v| = h^3/6; demand a healthy margin.
            if v.abs() < 1e-12 || v.signum() != initial_sign(&original, t) {
                bad = true;
                for &vv in t {
                    lat.coords[vv as usize] = original[vv as usize];
                }
            }
        }
        if !bad {
            break;
        }
    }
}

fn initial_sign(original: &[Vec3], t: &[u32; 4]) -> f64 {
    tet_volume(
        original[t[0] as usize],
        original[t[1] as usize],
        original[t[2] as usize],
        original[t[3] as usize],
    )
    .signum()
}

/// A jittered box mesh with every boundary face tagged far-field: the
/// canonical domain for freestream-preservation and solver unit tests.
pub fn unit_box(n: usize, jitter: f64, seed: u64) -> TetMesh {
    box_mesh(
        n,
        n,
        n,
        Vec3::ZERO,
        Vec3::new(1.0, 1.0, 1.0),
        jitter,
        seed,
        |_, _| BcKind::FarField,
    )
}

/// General jittered box mesh on `[lo, hi]` with a caller-supplied boundary
/// classifier.
#[allow(clippy::too_many_arguments)]
pub fn box_mesh(
    nx: usize,
    ny: usize,
    nz: usize,
    lo: Vec3,
    hi: Vec3,
    jitter: f64,
    seed: u64,
    classify: impl Fn(Vec3, Vec3) -> BcKind,
) -> TetMesh {
    let xs = cluster1d(nx, lo.x, hi.x, 0.5, 0.0);
    let ys = cluster1d(ny, lo.y, hi.y, 0.5, 0.0);
    let zs = cluster1d(nz, lo.z, hi.z, 0.5, 0.0);
    let mut lat = lattice(&xs, &ys, &zs);
    jitter_interior(&mut lat, &xs, &ys, &zs, jitter, seed);
    match TetMesh::from_tets(lat.coords, lat.tets, classify) {
        Ok(m) => m,
        Err(e) => unreachable!("lattice generator produced an invalid mesh: {e}"),
    }
}

/// Parameters of the transonic bump-channel family.
#[derive(Debug, Clone, PartialEq)]
pub struct BumpSpec {
    /// Cells along the channel (x), the height (y), and the span (z).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Bump height as a fraction of the chord (paper-era cases use ~10%).
    pub bump_height: f64,
    /// Spanwise taper: bump height scales by `1 - taper * z / depth`
    /// (0 = straight bump, > 0 = "swept wing-like" body).
    pub taper: f64,
    /// Interior jitter fraction (≤ ~0.25).
    pub jitter: f64,
    /// RNG seed, so multigrid levels can be genuinely *unrelated* meshes.
    pub seed: u64,
}

impl Default for BumpSpec {
    fn default() -> Self {
        BumpSpec::channel(24)
    }
}

impl BumpSpec {
    /// The channel every harness and the CLI size from one number: `nx`
    /// cells along the flow, a cross-section scaled to keep the cells
    /// near-isotropic (`ny = max(7nx/20, 4)`, `nz = max(3nx/10, 3)`),
    /// and 12 % interior jitter.
    pub fn channel(nx: usize) -> BumpSpec {
        BumpSpec {
            nx,
            ny: (nx * 7 / 20).max(4),
            nz: (nx * 3 / 10).max(3),
            bump_height: 0.10,
            taper: 0.0,
            jitter: 0.12,
            seed: 42,
        }
    }

    /// Set `nx`. `ny` and `nz` each follow it by [`BumpSpec::channel`]'s
    /// rule while they still hold that rule's value for the old `nx`; a
    /// cross-section set by hand stays.
    pub fn set_nx(&mut self, nx: usize) {
        let (old, new) = (BumpSpec::channel(self.nx), BumpSpec::channel(nx));
        if self.ny == old.ny {
            self.ny = new.ny;
        }
        if self.nz == old.nz {
            self.nz = new.nz;
        }
        self.nx = nx;
    }

    /// Halve the resolution (used to build coarse multigrid levels), with
    /// a different seed so the coarse mesh is unrelated to the fine one.
    pub fn coarsened(&self) -> BumpSpec {
        BumpSpec {
            nx: (self.nx / 2).max(4),
            ny: (self.ny / 2).max(2),
            nz: (self.nz / 2).max(2),
            seed: self.seed.wrapping_mul(6364136223846793005).wrapping_add(1),
            ..*self
        }
    }
}

/// Channel domain constants: chord-1 bump on the floor of a channel
/// `x ∈ [-1, 2] × y ∈ [0, 1] × z ∈ [0, depth]`, bump between `x ∈ [0, 1]`.
pub const CHANNEL_X: (f64, f64) = (-1.0, 2.0);
pub const CHANNEL_HEIGHT: f64 = 1.0;
pub const CHANNEL_DEPTH: f64 = 0.75;

/// `sin²` circular-arc-like bump profile on the chord `[0, 1]`.
#[inline]
pub fn bump_profile(x: f64, height: f64) -> f64 {
    if (0.0..=1.0).contains(&x) {
        height * (std::f64::consts::PI * x).sin().powi(2)
    } else {
        0.0
    }
}

/// The transonic channel-with-bump mesh (Ni-bump analogue): walls on the
/// floor (with the bump), and the ceiling; symmetry planes on the sides;
/// characteristic far-field at inlet and outlet.
///
/// With `taper > 0` the bump tapers in the spanwise direction, producing a
/// genuinely three-dimensional "wing-like" flow.
pub fn bump_channel(spec: &BumpSpec) -> TetMesh {
    let lat = bump_lattice(spec);
    match TetMesh::from_tets(lat.coords, lat.tets, classify_channel) {
        Ok(m) => m,
        Err(e) => unreachable!("bump-channel generator produced an invalid mesh: {e}"),
    }
}

/// [`bump_channel`] with the face-neighbour table its build found, for a
/// point locator over the mesh to take over.
pub(crate) fn bump_channel_with_neighbors(spec: &BumpSpec) -> (TetMesh, Vec<[u32; 4]>) {
    let lat = bump_lattice(spec);
    match TetMesh::from_tets_with_neighbors(lat.coords, lat.tets, classify_channel) {
        Ok(built) => built,
        Err(e) => unreachable!("bump-channel generator produced an invalid mesh: {e}"),
    }
}

/// The jittered, bump-sheared lattice of [`bump_channel`].
fn bump_lattice(spec: &BumpSpec) -> Lattice {
    let xs = cluster1d(spec.nx, CHANNEL_X.0, CHANNEL_X.1, 0.5, 0.6);
    let ys = cluster1d(spec.ny, 0.0, CHANNEL_HEIGHT, 0.0, 0.4);
    let zs = cluster1d(spec.nz, 0.0, CHANNEL_DEPTH, 0.5, 0.0);
    let mut lat = lattice(&xs, &ys, &zs);
    jitter_interior(&mut lat, &xs, &ys, &zs, spec.jitter, spec.seed);
    // Shear-map the channel so the floor follows the bump.
    for p in &mut lat.coords {
        let h = bump_profile(p.x, spec.bump_height) * (1.0 - spec.taper * p.z / CHANNEL_DEPTH);
        p.y += h * (1.0 - p.y / CHANNEL_HEIGHT);
    }
    lat
}

/// Parameters of the supersonic wedge (compression-ramp) channel: flow
/// along x meets a ramp of `angle_deg` starting at x = 0. The oblique
/// shock this produces has an exact inviscid solution (the theta-beta-M
/// relation), making the case a quantitative validation of the
/// shock-capturing scheme.
#[derive(Debug, Clone)]
pub struct WedgeSpec {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Ramp deflection angle in degrees.
    pub angle_deg: f64,
    pub jitter: f64,
    pub seed: u64,
}

impl Default for WedgeSpec {
    fn default() -> Self {
        WedgeSpec {
            nx: 30,
            ny: 12,
            nz: 4,
            angle_deg: 10.0,
            jitter: 0.1,
            seed: 11,
        }
    }
}

/// Wedge-channel domain: `x in [-0.5, 1.5] x y in [0, 1] x z in [0, 0.4]`,
/// ramp rising from `(0, 0)`.
pub const WEDGE_X: (f64, f64) = (-0.5, 1.5);
pub const WEDGE_HEIGHT: f64 = 1.0;
pub const WEDGE_DEPTH: f64 = 0.4;

/// Generate the wedge channel: slip walls on floor (incl. ramp) and
/// ceiling, symmetry on the side planes, far-field at inlet and outlet
/// (characteristic BCs handle the supersonic in/outflow one-sidedly).
pub fn wedge_channel(spec: &WedgeSpec) -> TetMesh {
    let xs = cluster1d(spec.nx, WEDGE_X.0, WEDGE_X.1, 0.3, 0.3);
    let ys = cluster1d(spec.ny, 0.0, WEDGE_HEIGHT, 0.0, 0.3);
    let zs = cluster1d(spec.nz, 0.0, WEDGE_DEPTH, 0.5, 0.0);
    let mut lat = lattice(&xs, &ys, &zs);
    jitter_interior(&mut lat, &xs, &ys, &zs, spec.jitter, spec.seed);
    let slope = spec.angle_deg.to_radians().tan();
    for p in &mut lat.coords {
        let h = (p.x * slope).max(0.0);
        p.y += h * (1.0 - p.y / WEDGE_HEIGHT);
    }
    match TetMesh::from_tets(lat.coords, lat.tets, classify_wedge) {
        Ok(m) => m,
        Err(e) => unreachable!("wedge generator produced an invalid mesh: {e}"),
    }
}

fn classify_wedge(_centroid: Vec3, unit_normal: Vec3) -> BcKind {
    if unit_normal.x.abs() > 0.9 {
        BcKind::FarField
    } else if unit_normal.z.abs() > 0.9 {
        BcKind::Symmetry
    } else {
        BcKind::Wall
    }
}

/// Boundary classifier for the (possibly tapered) bump channel.
fn classify_channel(centroid: Vec3, unit_normal: Vec3) -> BcKind {
    let _ = centroid; // ceiling and floor are both inviscid slip walls
    if unit_normal.x.abs() > 0.9 {
        BcKind::FarField
    } else if unit_normal.z.abs() > 0.9 {
        BcKind::Symmetry
    } else {
        BcKind::Wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::closure_residual;

    #[test]
    fn cluster1d_endpoints_and_monotonicity() {
        let xs = cluster1d(16, -1.0, 2.0, 0.5, 0.6);
        assert!((xs[0] + 1.0).abs() < 1e-12);
        assert!((xs[16] - 2.0).abs() < 1e-12);
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "graded coordinates must be monotone");
        }
    }

    #[test]
    fn cluster1d_uniform_when_unstretched() {
        let xs = cluster1d(4, 0.0, 1.0, 0.5, 0.0);
        for (i, x) in xs.iter().enumerate() {
            assert!((x - i as f64 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cluster1d_actually_clusters() {
        let xs = cluster1d(32, 0.0, 1.0, 0.5, 0.6);
        let mid = xs[17] - xs[16];
        let end = xs[1] - xs[0];
        assert!(
            mid < end,
            "spacing at the focus should be finer than at the ends"
        );
    }

    #[test]
    fn unit_box_counts() {
        let m = unit_box(3, 0.0, 0);
        assert_eq!(m.nverts(), 4 * 4 * 4);
        assert_eq!(m.ntets(), 6 * 27);
        // Surface: 6 faces x 9 cells x 2 triangles.
        assert_eq!(m.bfaces.len(), 6 * 9 * 2);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jittered_box_still_closes_and_fills() {
        let m = unit_box(5, 0.2, 7);
        assert!(
            (m.total_volume() - 1.0).abs() < 1e-12,
            "jitter must preserve total volume"
        );
        let bf: Vec<_> = m.bfaces.iter().map(|f| (f.normal, f.v)).collect();
        let res = closure_residual(m.nverts(), &m.edges, &m.edge_coef, &bf);
        for r in res {
            assert!(r.norm() < 1e-12);
        }
    }

    #[test]
    fn jitter_is_deterministic() {
        let a = unit_box(4, 0.2, 3);
        let b = unit_box(4, 0.2, 3);
        for (p, q) in a.coords.iter().zip(&b.coords) {
            assert_eq!(p, q);
        }
    }

    #[test]
    fn jitter_moves_interior_only() {
        let a = unit_box(4, 0.0, 3);
        let b = unit_box(4, 0.25, 3);
        let mut moved = 0;
        for (p, q) in a.coords.iter().zip(&b.coords) {
            let on_boundary = [p.x, p.y, p.z].iter().any(|&c| c == 0.0 || c == 1.0);
            if on_boundary {
                assert_eq!(p, q, "boundary vertices must not move");
            } else if (*p - *q).norm() > 0.0 {
                moved += 1;
            }
        }
        assert!(moved > 0, "some interior vertices should move");
    }

    #[test]
    fn all_tets_positive_after_jitter() {
        let m = unit_box(6, 0.25, 11);
        for t in &m.tets {
            let v = tet_volume(
                m.coords[t[0] as usize],
                m.coords[t[1] as usize],
                m.coords[t[2] as usize],
                m.coords[t[3] as usize],
            );
            assert!(v > 0.0);
        }
        for &v in &m.vol {
            assert!(v > 0.0, "dual volumes must stay positive");
        }
    }

    #[test]
    fn wedge_channel_is_valid_and_tagged() {
        let m = wedge_channel(&WedgeSpec::default());
        use crate::stats::MeshStats;
        let s = MeshStats::compute(&m);
        assert!(s.is_valid(), "{}", s.summary());
        assert!(s.walls > 0 && s.farfield > 0 && s.symmetry > 0);
    }

    #[test]
    fn wedge_ramp_rises_at_given_angle() {
        let spec = WedgeSpec {
            jitter: 0.0,
            ..WedgeSpec::default()
        };
        let m = wedge_channel(&spec);
        // Floor height at x = 1 should be ~ tan(10 deg).
        let floor_y = m
            .coords
            .iter()
            .filter(|p| (p.x - 1.0).abs() < 0.05 && p.y < 0.4)
            .map(|p| p.y)
            .fold(f64::INFINITY, f64::min);
        let expect = spec.angle_deg.to_radians().tan();
        assert!(
            (floor_y - expect).abs() < 0.05,
            "ramp height {floor_y} vs tan(theta) {expect}"
        );
    }

    #[test]
    fn bump_channel_has_all_bc_kinds() {
        let m = bump_channel(&BumpSpec::default());
        let walls = m.bfaces.iter().filter(|f| f.kind == BcKind::Wall).count();
        let far = m
            .bfaces
            .iter()
            .filter(|f| f.kind == BcKind::FarField)
            .count();
        let sym = m
            .bfaces
            .iter()
            .filter(|f| f.kind == BcKind::Symmetry)
            .count();
        assert!(walls > 0 && far > 0 && sym > 0);
        assert_eq!(walls + far + sym, m.bfaces.len());
    }

    #[test]
    fn bump_raises_the_floor() {
        let spec = BumpSpec {
            jitter: 0.0,
            ..BumpSpec::default()
        };
        let m = bump_channel(&spec);
        let max_floor_y = m
            .coords
            .iter()
            .filter(|p| p.y < 0.3)
            .map(|p| p.y)
            .fold(0.0f64, f64::max);
        assert!(
            max_floor_y > 0.5 * spec.bump_height,
            "bump must lift floor vertices"
        );
    }

    #[test]
    fn tapered_bump_is_three_dimensional() {
        let spec = BumpSpec {
            taper: 0.6,
            jitter: 0.0,
            ..BumpSpec::default()
        };
        let m = bump_channel(&spec);
        // Floor height at z=0 should exceed floor height at z=depth near mid-chord.
        let probe = |ztarget: f64| -> f64 {
            m.coords
                .iter()
                .filter(|p| (p.x - 0.5).abs() < 0.2 && (p.z - ztarget).abs() < 0.1)
                .map(|p| p.y)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(probe(0.0) > probe(CHANNEL_DEPTH) + 1e-3);
    }

    #[test]
    fn coarsened_spec_halves_and_reseeds() {
        let s = BumpSpec::default();
        let c = s.coarsened();
        assert_eq!(c.nx, s.nx / 2);
        assert_ne!(c.seed, s.seed);
    }

    #[test]
    fn channel_sizes_the_cross_section_from_nx() {
        for (nx, ny, nz) in [
            (4, 4, 3),
            (10, 4, 3),
            (24, 8, 7),
            (40, 14, 12),
            (64, 22, 19),
            (96, 33, 28),
        ] {
            let s = BumpSpec::channel(nx);
            assert_eq!((s.nx, s.ny, s.nz, s.jitter), (nx, ny, nz, 0.12), "nx={nx}");
            assert_eq!(s.seed, BumpSpec::default().seed);
        }
        assert_eq!(BumpSpec::default(), BumpSpec::channel(24));
    }

    #[test]
    fn set_nx_resizes_only_the_derived_cross_section() {
        let mut s = BumpSpec::default();
        s.set_nx(96);
        assert_eq!(s, BumpSpec::channel(96));
        s.ny = 8;
        s.set_nx(40);
        assert_eq!((s.nx, s.ny, s.nz), (40, 8, 12), "a hand-set ny stays");
    }
}
