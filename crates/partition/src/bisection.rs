//! The one recursive-bisection driver behind flat RSB, multilevel RSB and
//! RCB: a work stack of vertex subsets, each split in two until it holds
//! one part. The driver renumbers every subset locally, hands the method's
//! bisection step the subset and its induced edges, and splits the edges
//! between the two children; the step only decides which vertices go
//! left.
//!
//! The step returns its subset's local ids as one permutation with the
//! left child first, in the method's own order (Fiedler order for RSB,
//! ascending for multilevel, coordinate order for RCB). Children keep that
//! order, and the next step sees it as their local numbering, so the order
//! is part of the result.

/// One bisection's outcome: every local id of the subset exactly once,
/// the left child's `cut` first, plus the Lanczos iterations the step
/// spent (0 for a geometric step).
pub(crate) struct Split {
    pub order: Vec<u32>,
    pub cut: usize,
    pub iterations: usize,
}

/// Partition `nverts` vertices into `nparts` parts by recursive
/// bisection. `step(verts, local_edges, np_left, np_right)` splits one
/// subset (`verts` are its global ids, `local_edges` its induced edges
/// in local ids) for `np_left` and `np_right` parts. Returns the part of
/// every vertex and the summed step iterations.
pub(crate) fn recursive_bisection(
    nverts: usize,
    edges: &[[u32; 2]],
    nparts: usize,
    mut step: impl FnMut(&[u32], &[[u32; 2]], usize, usize) -> Split,
) -> (Vec<u32>, usize) {
    assert!(nparts >= 1);
    let mut parts = vec![0u32; nverts];
    let mut iterations = 0usize;
    if nparts == 1 || nverts == 0 {
        return (parts, iterations);
    }
    let all: Vec<u32> = (0..nverts as u32).collect();
    // Scratch global→local map shared across bisections: each bisection
    // overwrites the slots of exactly the vertices it owns, and its edge
    // list touches no others, so stale entries are never read.
    let mut local_of = vec![0u32; nverts];
    let mut stack = vec![(all, edges.to_vec(), 0u32, nparts)];
    while let Some((verts, sub_edges, base, np)) = stack.pop() {
        if np == 1 || verts.len() <= 1 {
            for &v in &verts {
                parts[v as usize] = base;
            }
            continue;
        }
        let np_left = np / 2;
        let np_right = np - np_left;
        for (l, &g) in verts.iter().enumerate() {
            local_of[g as usize] = l as u32;
        }
        let local_edges: Vec<[u32; 2]> = sub_edges
            .iter()
            .map(|&[a, b]| [local_of[a as usize], local_of[b as usize]])
            .collect();
        let split = step(&verts, &local_edges, np_left, np_right);
        iterations += split.iterations;

        let mut side = vec![false; verts.len()];
        for &l in &split.order[..split.cut] {
            side[l as usize] = true;
        }
        let global = |ls: &[u32]| -> Vec<u32> { ls.iter().map(|&l| verts[l as usize]).collect() };
        let (left, right) = (
            global(&split.order[..split.cut]),
            global(&split.order[split.cut..]),
        );
        let mut le = Vec::new();
        let mut re = Vec::new();
        for &[a, b] in &local_edges {
            match (side[a as usize], side[b as usize]) {
                (true, true) => le.push([verts[a as usize], verts[b as usize]]),
                (false, false) => re.push([verts[a as usize], verts[b as usize]]),
                _ => {} // cut edge: dropped from both induced subgraphs
            }
        }
        stack.push((left, le, base, np_left));
        stack.push((right, re, base + np_left as u32, np_right));
    }
    (parts, iterations)
}
