//! Self-contained spectral machinery for recursive spectral bisection
//! (Pothen, Simon, Liou, SIAM J. Matrix Anal. Appl. 1990 — reference \[10\]
//! of the paper): a Lanczos iteration on the graph Laplacian, deflated
//! against the constant vector, with a dense Jacobi eigensolver for the
//! small tridiagonal projection, yielding the **Fiedler vector** used to
//! split the mesh.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A compact undirected graph in CSR form (vertex → neighbour vertices).
#[derive(Debug, Clone)]
pub struct Graph {
    pub offsets: Vec<u32>,
    pub nbrs: Vec<u32>,
}

impl Graph {
    /// Build from an undirected edge list over `nverts` vertices.
    pub fn from_edges(nverts: usize, edges: &[[u32; 2]]) -> Graph {
        let mut counts = vec![0u32; nverts + 1];
        for &[a, b] in edges {
            counts[a as usize + 1] += 1;
            counts[b as usize + 1] += 1;
        }
        for i in 0..nverts {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut nbrs = vec![0u32; offsets[nverts] as usize];
        let mut cursor = offsets.clone();
        for &[a, b] in edges {
            nbrs[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            nbrs[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        Graph { offsets, nbrs }
    }

    pub fn nverts(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.nbrs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// `y = L x` where `L = D - A` is the combinatorial Laplacian.
    pub fn laplacian_matvec(&self, x: &[f64], y: &mut [f64]) {
        for v in 0..self.nverts() {
            let mut acc = self.degree(v) as f64 * x[v];
            for &u in self.neighbors(v) {
                acc -= x[u as usize];
            }
            y[v] = acc;
        }
    }
}

/// Eigen-decomposition of a small dense symmetric matrix by cyclic Jacobi
/// rotations. Returns `(eigenvalues, eigenvectors-as-columns)`; not sorted.
#[allow(clippy::needless_range_loop)] // textbook matrix index notation
pub fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += a[p][q] * a[p][q];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for row in v.iter_mut() {
                    let vp = row[p];
                    let vq = row[q];
                    row[p] = c * vp - s * vq;
                    row[q] = s * vp + c * vq;
                }
            }
        }
    }
    let eigvals = (0..n).map(|i| a[i][i]).collect();
    (eigvals, v)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Remove the component of `x` along (normalized) `q`.
fn orthogonalize(x: &mut [f64], q: &[f64]) {
    let c = dot(x, q);
    for (xi, qi) in x.iter_mut().zip(q) {
        *xi -= c * qi;
    }
}

/// A Fiedler solve with its work accounting: the (Ritz) vector plus
/// the number of Lanczos iterations run, which the partition plan
/// reports.
#[derive(Debug, Clone)]
pub struct FiedlerSolve {
    /// The approximate Fiedler vector.
    pub vector: Vec<f64>,
    /// Lanczos iterations performed (≤ the iteration cap).
    pub iterations: usize,
}

/// Approximate the Fiedler vector (eigenvector of the second-smallest
/// Laplacian eigenvalue) of a graph by `iters` Lanczos steps (fewer on
/// breakdown) with full reorthogonalization and deflation of the
/// constant null vector.
///
/// On disconnected graphs this returns a vector separating components
/// (an exact zero eigenvector orthogonal to 1), which still produces a
/// sensible bisection. Graphs with < 3 vertices get a trivial ±pattern.
pub fn fiedler_vector(g: &Graph, iters: usize, seed: u64) -> Vec<f64> {
    lanczos_fiedler(g.nverts(), |x, y| g.laplacian_matvec(x, y), iters, seed).vector
}

/// The shared Lanczos driver: `matvec` applies the (possibly weighted)
/// graph Laplacian, which is the only thing that differs between the
/// flat unweighted path and the multilevel coarse-graph path.
pub(crate) fn lanczos_fiedler(
    n: usize,
    matvec: impl Fn(&[f64], &mut [f64]),
    iters: usize,
    seed: u64,
) -> FiedlerSolve {
    if n == 0 {
        return FiedlerSolve {
            vector: Vec::new(),
            iterations: 0,
        };
    }
    if n <= 2 {
        return FiedlerSolve {
            vector: (0..n).map(|i| if i == 0 { -1.0 } else { 1.0 }).collect(),
            iterations: 0,
        };
    }
    let m = iters.min(n - 1).max(2);
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let mut rng = StdRng::seed_from_u64(seed);

    // Lanczos basis with full reorthogonalization (robust at these sizes).
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);

    let mut v: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    orthogonalize(&mut v, &ones);
    let nv = norm(&v);
    if nv < 1e-30 {
        // Astronomically unlikely; fall back to a deterministic pattern.
        v = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        orthogonalize(&mut v, &ones);
    }
    let nv = norm(&v);
    for x in &mut v {
        *x /= nv;
    }

    let mut w = vec![0.0; n];
    for _k in 0..m {
        matvec(&v, &mut w);
        let alpha = dot(&v, &w);
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi -= alpha * vi;
        }
        if let Some(prev) = basis.last() {
            let beta_prev = *betas.last().unwrap();
            for (wi, pi) in w.iter_mut().zip(prev) {
                *wi -= beta_prev * pi;
            }
        }
        // Full reorthogonalization against the deflated space and basis.
        orthogonalize(&mut w, &ones);
        for b in &basis {
            orthogonalize(&mut w, b);
        }
        basis.push(v.clone());
        alphas.push(alpha);
        let beta = norm(&w);
        if beta < 1e-12 {
            break;
        }
        betas.push(beta);
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / beta;
        }
    }

    // Projected tridiagonal problem.
    let k = alphas.len();
    let mut t = vec![vec![0.0; k]; k];
    for i in 0..k {
        t[i][i] = alphas[i];
        if i + 1 < k {
            t[i][i + 1] = betas[i];
            t[i + 1][i] = betas[i];
        }
    }
    let (evals, evecs) = jacobi_eigen(t);
    let best = (0..k)
        .min_by(|&i, &j| evals[i].partial_cmp(&evals[j]).unwrap())
        .unwrap();

    // Ritz vector = basis * evec column `best`.
    let mut fiedler = vec![0.0; n];
    for (j, b) in basis.iter().enumerate() {
        let c = evecs[j][best];
        for (fi, bi) in fiedler.iter_mut().zip(b) {
            *fi += c * bi;
        }
    }
    FiedlerSolve {
        vector: fiedler,
        iterations: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<[u32; 2]> = (0..n - 1).map(|i| [i as u32, i as u32 + 1]).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn graph_from_edges_degrees() {
        let g = path_graph(5);
        assert_eq!(g.nverts(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = path_graph(7);
        let x = vec![3.5; 7];
        let mut y = vec![0.0; 7];
        g.laplacian_matvec(&x, &mut y);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_eigen_2x2() {
        let (vals, vecs) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 1.0).abs() < 1e-10);
        assert!((sorted[1] - 3.0).abs() < 1e-10);
        // Eigenvector check: A v = λ v for the first column.
        let a = [[2.0, 1.0], [1.0, 2.0]];
        for col in 0..2 {
            for row in 0..2 {
                let av = a[row][0] * vecs[0][col] + a[row][1] * vecs[1][col];
                assert!((av - vals[col] * vecs[row][col]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn fiedler_of_path_is_monotone() {
        // The Fiedler vector of a path graph is a discrete cosine: strictly
        // monotone, so its sign pattern splits the path in half.
        let g = path_graph(20);
        let f = fiedler_vector(&g, 30, 7);
        let increasing = f.windows(2).all(|w| w[1] > w[0]);
        let decreasing = f.windows(2).all(|w| w[1] < w[0]);
        assert!(
            increasing || decreasing,
            "path Fiedler vector must be monotone: {f:?}"
        );
    }

    #[test]
    fn fiedler_separates_a_dumbbell() {
        // Two K4 cliques joined by one edge: the Fiedler vector's sign
        // splits the cliques.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                edges.push([a, b]);
                edges.push([a + 4, b + 4]);
            }
        }
        edges.push([3, 4]);
        let g = Graph::from_edges(8, &edges);
        let f = fiedler_vector(&g, 20, 3);
        let s0 = f[0].signum();
        for i in 0..4 {
            assert_eq!(f[i].signum(), s0, "clique A on one side");
            assert_eq!(f[i + 4].signum(), -s0, "clique B on the other");
        }
    }

    #[test]
    fn fiedler_orthogonal_to_ones() {
        let g = path_graph(15);
        let f = fiedler_vector(&g, 20, 1);
        let s: f64 = f.iter().sum();
        assert!(s.abs() < 1e-8 * norm(&f).max(1.0));
    }

    #[test]
    fn fiedler_tiny_graphs() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(fiedler_vector(&g, 10, 0).len(), 1);
        let g2 = Graph::from_edges(2, &[[0, 1]]);
        let f2 = fiedler_vector(&g2, 10, 0);
        assert_eq!(f2.len(), 2);
        assert!(f2[0] != f2[1]);
    }

    #[test]
    fn fiedler_disconnected_graph_separates_components() {
        // Two disjoint triangles.
        let edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]];
        let g = Graph::from_edges(6, &edges);
        let f = fiedler_vector(&g, 20, 5);
        let s0 = f[0].signum();
        assert!(f[..3].iter().all(|x| x.signum() == s0));
        assert!(f[3..].iter().all(|x| x.signum() == -s0));
    }
}
