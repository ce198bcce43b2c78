//! Point location by tetrahedron-adjacency walking — the "efficient graph
//! traversal search algorithm" of §2.4, used to build the inter-grid
//! interpolation operators in a preprocessing pass.

use crate::mesh::TetMesh;
use crate::topology::{tet_neighbors, vertex_tets};
use crate::types::Csr;
use crate::vec3::{tet_volume, Vec3};

/// Barycentric coordinates of `p` in tet `t` (sum to 1; all non-negative
/// iff `p` is inside).
pub fn barycentric(mesh: &TetMesh, t: usize, p: Vec3) -> [f64; 4] {
    let tv = mesh.tets[t];
    let a = mesh.coords[tv[0] as usize];
    let b = mesh.coords[tv[1] as usize];
    let c = mesh.coords[tv[2] as usize];
    let d = mesh.coords[tv[3] as usize];
    let v = tet_volume(a, b, c, d);
    [
        tet_volume(p, b, c, d) / v,
        tet_volume(a, p, c, d) / v,
        tet_volume(a, b, p, d) / v,
        tet_volume(a, b, c, p) / v,
    ]
}

/// A reusable point locator over one mesh. Construction builds the
/// face-adjacency graph (by walking the vertex → tet incidence) and a
/// grid of tet centroids once; queries walk from a seed tet toward the
/// target, which is `O(path length)` — near-constant when queries have
/// spatial locality (as successive mesh vertices do).
pub struct Locator<'m> {
    mesh: &'m TetMesh,
    tables: SearchTables,
}

/// What a [`Locator`] builds over its mesh, held apart from the mesh so
/// a multigrid sequence can keep a level's tables while it moves the
/// level's mesh: the face neighbours the walk steps across, and the tet
/// centroids by cell for the nearest-centroid fallback.
pub(crate) struct SearchTables {
    nbrs: Vec<[u32; 4]>,
    grid: CentroidGrid,
}

/// Result of a locate query.
#[derive(Debug, Clone, Copy)]
pub struct Located {
    /// Containing (or closest-found) tet index.
    pub tet: usize,
    /// Barycentric weights in that tet, clamped to `[0, 1]` and
    /// renormalized when the point was (slightly) outside the mesh.
    pub bary: [f64; 4],
    /// True if the point was strictly inside (no clamping applied).
    pub inside: bool,
}

impl<'m> Locator<'m> {
    pub fn new(mesh: &'m TetMesh) -> Self {
        Locator {
            mesh,
            tables: SearchTables::with_neighbors(mesh, face_neighbors(mesh)),
        }
    }

    /// Walk from `seed` toward `p`: while some barycentric coordinate is
    /// negative, step across the face opposite the most-negative one.
    /// Bounded by the tet count; on failure (point outside the mesh, or a
    /// rare cycle on a boundary) falls back to the nearest-centroid tet
    /// with clamped weights. The mesh must have at least one tet.
    pub fn locate(&self, p: Vec3, seed: usize) -> Located {
        self.tables.locate(self.mesh, p, seed)
    }
}

/// The face-neighbour table of a finished mesh, found afresh.
pub(crate) fn face_neighbors(mesh: &TetMesh) -> Vec<[u32; 4]> {
    match tet_neighbors(&mesh.tets, &vertex_tets(mesh.nverts(), &mesh.tets)) {
        Ok(nbrs) => nbrs,
        Err(e) => unreachable!("TetMesh::from_tets accepted a non-conforming mesh: {e}"),
    }
}

impl SearchTables {
    /// The tables of `mesh` over its face-neighbour table `nbrs` (as
    /// [`crate::topology::tet_neighbors`] builds it), which they keep.
    pub(crate) fn with_neighbors(mesh: &TetMesh, nbrs: Vec<[u32; 4]>) -> SearchTables {
        debug_assert_eq!(nbrs.len(), mesh.ntets());
        SearchTables {
            nbrs,
            grid: CentroidGrid::new(mesh),
        }
    }

    /// [`Locator::locate`] over `mesh`, the mesh these tables index.
    pub(crate) fn locate(&self, mesh: &TetMesh, p: Vec3, seed: usize) -> Located {
        const EPS: f64 = -1e-12;
        let mut t = seed.min(mesh.ntets() - 1);
        let mut steps = 0usize;
        let max_steps = mesh.ntets();
        loop {
            let bary = barycentric(mesh, t, p);
            let mut worst = 0;
            for k in 1..4 {
                if bary[k] < bary[worst] {
                    worst = k;
                }
            }
            let min = bary[worst];
            if min >= EPS {
                return Located {
                    tet: t,
                    bary: clamp_bary(bary),
                    inside: min >= 0.0,
                };
            }
            // The face opposite local vertex `worst` leads toward p.
            let next = self.nbrs[t][worst];
            steps += 1;
            if next == u32::MAX || steps > max_steps {
                return self.fallback(mesh, p);
            }
            t = next as usize;
        }
    }

    /// Fallback: the nearest-centroid tet (lowest index on a tie), with
    /// clamped weights.
    fn fallback(&self, mesh: &TetMesh, p: Vec3) -> Located {
        let Some(best) = self.grid.nearest(mesh, p) else {
            unreachable!("mesh has no tets")
        };
        let bary = barycentric(mesh, best, p);
        Located {
            tet: best,
            bary: clamp_bary(bary),
            inside: false,
        }
    }
}

/// Centroid of tet `t`.
fn centroid(mesh: &TetMesh, t: usize) -> Vec3 {
    let [a, b, c, d] = mesh.tets[t].map(|v| mesh.coords[v as usize]);
    (a + b + c + d) / 4.0
}

/// Tet centroids bucketed in a uniform grid of cubic cells over the
/// mesh's bounding box, sized from the tet count alone (about two
/// centroids per cell). A nearest-centroid query searches rings of cells
/// outward from the query's cell and stops once no unvisited cell can
/// hold a centroid as near as the best found, so it returns exactly what
/// a scan of every centroid would: the smallest squared distance, the
/// lowest tet index on a tie.
struct CentroidGrid {
    /// Low corner of the mesh's bounding box.
    lo: [f64; 3],
    /// Cell edge length, and its reciprocal.
    h: f64,
    inv_h: f64,
    /// Cells along each axis.
    dims: [usize; 3],
    /// Cell `i + dims[0]·(j + dims[1]·k)` → the tets whose centroid it
    /// holds, ascending.
    cells: Csr,
    /// Magnitude of the grid's coordinates, which scales the rounding
    /// slack of a query's stopping bound.
    scale: f64,
}

fn xyz(p: Vec3) -> [f64; 3] {
    [p.x, p.y, p.z]
}

impl CentroidGrid {
    fn new(mesh: &TetMesh) -> CentroidGrid {
        let n = mesh.ntets();
        let inf = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (lo, hi) = mesh
            .coords
            .iter()
            .fold((inf, -inf), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let (lo, hi) = (xyz(lo), xyz(hi));
        let ext = [0, 1, 2].map(|k| hi[k] - lo[k]);
        let emax = ext[0].max(ext[1]).max(ext[2]);
        // A flat extent counts as a thousandth of the widest, so a
        // one-layer mesh still gets cells of finite size.
        let floor = emax * 1e-3;
        let box_vol = ext.iter().map(|e| e.max(floor)).product::<f64>();
        let h = (box_vol / (n / 2).max(1) as f64).cbrt();
        let h = if h > 0.0 && h.is_finite() {
            h
        } else {
            f64::INFINITY
        };
        let dims = ext.map(|e| {
            let d = e / h;
            if d >= 1.0 {
                d.min(n as f64) as usize + 1
            } else {
                1
            }
        });
        let mut grid = CentroidGrid {
            lo,
            h,
            inv_h: 1.0 / h,
            dims,
            cells: Csr::default(),
            scale: lo.iter().chain(&hi).fold(h, |s, x| s.max(x.abs())),
        };
        let cell_ids: Vec<u32> = (0..n)
            .map(|t| grid.cell_id(grid.cell_of(centroid(mesh, t))) as u32)
            .collect();
        grid.cells = Csr::from_pairs(dims.iter().product(), cell_ids.iter().copied().zip(0..));
        grid
    }

    /// The cell holding `p`, clamped into the grid (a point outside it
    /// starts from the nearest boundary cell).
    fn cell_of(&self, p: Vec3) -> [usize; 3] {
        let p = xyz(p);
        [0, 1, 2].map(|k| {
            // Truncation is the floor for positive offsets; `as`
            // saturates an infinite one, and NaN fails the test.
            let c = (p[k] - self.lo[k]) * self.inv_h;
            if c > 0.0 {
                (c as usize).min(self.dims[k] - 1)
            } else {
                0
            }
        })
    }

    fn cell_id(&self, [i, j, k]: [usize; 3]) -> usize {
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// Calls `f` on every cell at Chebyshev distance exactly `r` from `c`.
    fn ring(&self, c: [usize; 3], r: usize, mut f: impl FnMut(usize)) {
        let span =
            |a: usize| c[a].saturating_sub(r)..=(c[a].saturating_add(r)).min(self.dims[a] - 1);
        for k in span(2) {
            for j in span(1) {
                if k.abs_diff(c[2]) == r || j.abs_diff(c[1]) == r {
                    for i in span(0) {
                        f(self.cell_id([i, j, k]));
                    }
                } else {
                    // Interior of the (j, k) cross-section: only the two
                    // end cells along i are on the shell.
                    if let Some(i) = c[0].checked_sub(r) {
                        f(self.cell_id([i, j, k]));
                    }
                    if r > 0 && c[0] + r < self.dims[0] {
                        f(self.cell_id([c[0] + r, j, k]));
                    }
                }
            }
        }
    }

    /// Lower bound on the distance from `p` to any centroid outside the
    /// cells within Chebyshev distance `r` of `c`, or `None` when those
    /// cells cover the whole grid. Such a centroid lies beyond one face
    /// of that block of cells, and inside the grid along the other axes.
    fn gap(&self, p: Vec3, c: [usize; 3], r: usize) -> Option<f64> {
        let (p, lo, h) = (xyz(p), self.lo, self.h);
        // How far `p` lies outside the grid along each axis.
        let out = [0, 1, 2].map(|a| {
            let hi = lo[a] + self.dims[a] as f64 * h;
            (lo[a] - p[a]).max(p[a] - hi).max(0.0)
        });
        let mut gap2 = None::<f64>;
        for a in 0..3 {
            let across: f64 = (0..3).filter(|&b| b != a).map(|b| out[b] * out[b]).sum();
            let mut side = |g: f64| {
                let d2 = g.max(0.0).powi(2) + across;
                gap2 = Some(gap2.map_or(d2, |x| x.min(d2)));
            };
            if c[a] > r {
                side(p[a] - (lo[a] + (c[a] - r) as f64 * h));
            }
            if c[a] + r + 1 < self.dims[a] {
                side(lo[a] + (c[a] + r + 1) as f64 * h - p[a]);
            }
        }
        gap2.map(f64::sqrt)
    }

    /// The tet of `mesh` (the one the grid was built over) whose
    /// centroid is nearest `p`; `None` only without tets.
    fn nearest(&self, mesh: &TetMesh, p: Vec3) -> Option<usize> {
        let c = self.cell_of(p);
        let pmax = p.x.abs().max(p.y.abs()).max(p.z.abs());
        // Covers the rounding of the bound and of the cell assignment.
        let slack = 1e-9 * (self.scale + pmax);
        let mut best: Option<(f64, u32)> = None;
        for r in 0.. {
            self.ring(c, r, |cell| {
                for &t in self.cells.row(cell) {
                    let d2 = (centroid(mesh, t as usize) - p).norm_sq();
                    let better =
                        best.is_none_or(|(b2, bt)| d2.total_cmp(&b2).then(t.cmp(&bt)).is_lt());
                    if better {
                        best = Some((d2, t));
                    }
                }
            });
            let Some(gap) = self.gap(p, c, r) else { break };
            if let Some((b2, _)) = best {
                let g = gap - slack;
                if g > 0.0 && g * g > b2 {
                    break;
                }
            }
        }
        best.map(|(_, t)| t as usize)
    }
}

/// Clamp barycentric weights to `[0, 1]` and renormalize to sum 1.
fn clamp_bary(b: [f64; 4]) -> [f64; 4] {
    let mut c = b.map(|w| w.clamp(0.0, 1.0));
    let s: f64 = c.iter().sum();
    if s > 0.0 {
        for w in &mut c {
            *w /= s;
        }
    } else {
        c = [0.25; 4];
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::unit_box;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The scan the grid replaces: first minimum of the squared distance.
    fn brute_nearest(centroids: &[Vec3], p: Vec3) -> Option<usize> {
        centroids
            .iter()
            .enumerate()
            .map(|(i, &c)| (i, (c - p).norm_sq()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    }

    fn centroids(m: &TetMesh) -> Vec<Vec3> {
        (0..m.ntets()).map(|t| centroid(m, t)).collect()
    }

    fn assert_grid_matches_scan(m: &TetMesh, points: &[Vec3]) {
        let (loc, c) = (Locator::new(m), centroids(m));
        for &p in points {
            assert_eq!(
                loc.tables.grid.nearest(m, p),
                brute_nearest(&c, p),
                "nearest centroid of {p:?}"
            );
        }
    }

    #[test]
    fn grid_fallback_equals_scan_inside_on_and_outside_the_box() {
        let mut rng = StdRng::seed_from_u64(11);
        for m in [
            unit_box(5, 0.2, 3),
            unit_box(1, 0.0, 0),
            unit_box(3, 0.0, 0),
        ] {
            let mut points = Vec::new();
            for _ in 0..300 {
                // Inside, and up to a box width outside, every side.
                let mut q = || rng.random_range(-1.0..2.0);
                points.push(Vec3::new(q(), q(), q()));
            }
            for _ in 0..100 {
                // On the box: one coordinate pinned to a face.
                let mut p = [0.0f64; 3].map(|_| rng.random_range(0.0..1.0));
                p[rng.random_range(0..3usize)] = if rng.random_range(0..2u32) == 0 {
                    0.0
                } else {
                    1.0
                };
                points.push(Vec3::new(p[0], p[1], p[2]));
            }
            // Far away, infinitely far, and not a number.
            points.push(Vec3::new(1e6, -3e5, 0.5));
            points.push(Vec3::new(f64::NAN, 0.5, 0.5));
            points.push(Vec3::new(f64::INFINITY, 0.5, 0.5));
            assert_grid_matches_scan(&m, &points);
        }
    }

    #[test]
    fn grid_fallback_breaks_exact_ties_like_the_scan() {
        // An unjittered box: every lattice point, cell centre and face
        // centre is equidistant from several tet centroids.
        let m = unit_box(4, 0.0, 0);
        let mut points = m.coords.clone();
        for i in 0..9 {
            for j in 0..9 {
                for k in 0..9 {
                    points.push(Vec3::new(i as f64, j as f64, k as f64) / 8.0);
                }
            }
        }
        let c = centroids(&m);
        let ties = points
            .iter()
            .filter(|&&p| {
                let d = |x: &Vec3| (*x - p).norm_sq();
                let best = c.iter().map(d).fold(f64::INFINITY, f64::min);
                c.iter().filter(|x| d(x) == best).count() > 1
            })
            .count();
        assert!(ties > 100, "only {ties} tied points");
        assert_grid_matches_scan(&m, &points);
    }

    #[test]
    fn barycentric_at_vertices() {
        let m = unit_box(2, 0.0, 0);
        let t = 0usize;
        for local in 0..4 {
            let p = m.coords[m.tets[t][local] as usize];
            let b = barycentric(&m, t, p);
            for (i, w) in b.iter().enumerate() {
                let expect = if i == local { 1.0 } else { 0.0 };
                assert!((w - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn locate_interior_points() {
        let m = unit_box(4, 0.15, 5);
        let loc = Locator::new(&m);
        for (i, pt) in [
            Vec3::new(0.3, 0.4, 0.5),
            Vec3::new(0.9, 0.1, 0.2),
            Vec3::new(0.01, 0.99, 0.5),
        ]
        .iter()
        .enumerate()
        {
            let r = loc.locate(*pt, i * 7 % m.ntets());
            assert!(r.inside, "interior point must be found inside");
            // Reconstruct the point from the weights.
            let t = m.tets[r.tet];
            let mut q = Vec3::ZERO;
            for (&v, &bk) in t.iter().zip(&r.bary) {
                q += m.coords[v as usize] * bk;
            }
            assert!((q - *pt).norm() < 1e-10);
        }
    }

    #[test]
    fn locate_outside_point_clamps() {
        let m = unit_box(3, 0.0, 0);
        let loc = Locator::new(&m);
        let r = loc.locate(Vec3::new(2.0, 0.5, 0.5), 0);
        assert!(!r.inside);
        let s: f64 = r.bary.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(r.bary.iter().all(|&w| (0.0..=1.0).contains(&w)));
    }

    #[test]
    fn locate_every_lattice_vertex_of_other_mesh() {
        let a = unit_box(5, 0.2, 1);
        let b = unit_box(3, 0.2, 2);
        let loc = Locator::new(&b);
        let mut seed = 0usize;
        for &p in &a.coords {
            let r = loc.locate(p, seed);
            seed = r.tet;
            let t = b.tets[r.tet];
            let mut q = Vec3::ZERO;
            for (&v, &bk) in t.iter().zip(&r.bary) {
                q += b.coords[v as usize] * bk;
            }
            // Both meshes fill the same unit cube, so every vertex must be
            // reproduced (up to clamping at the very boundary).
            assert!((q - p).norm() < 1e-9, "vertex {p:?} badly located");
        }
    }
}
