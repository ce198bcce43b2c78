//! The incidence-walk topology builders against the builders they
//! replaced, kept here as oracles: a global sort + dedup for the edges, a
//! binary search per tet edge for the dual metrics, hash maps keyed by
//! the sorted face triple for the boundary faces and tet neighbours, and
//! a scan of every tet centroid behind the point-location walk. Every
//! output must be the oracle's bit for bit, so meshes, interpolation
//! operators and everything downstream of them keep their bits.

use std::collections::HashMap;

use eul3d::mesh::gen::{bump_channel, unit_box, wedge_channel, BumpSpec, WedgeSpec};
use eul3d::mesh::refine::refine_uniform;
use eul3d::mesh::search::barycentric;
use eul3d::mesh::topology::{tet_neighbors, vertex_tets, TET_EDGES, TET_FACES};
use eul3d::mesh::vec3::{tet_volume, tri_area_vec};
use eul3d::mesh::{InterpOps, MeshSequence, TetMesh, Vec3};

fn extract_edges(tets: &[[u32; 4]]) -> Vec<[u32; 2]> {
    let mut edges = Vec::with_capacity(tets.len() * 6);
    for t in tets {
        for le in &TET_EDGES {
            let (a, b) = (t[le[0]], t[le[1]]);
            edges.push(if a < b { [a, b] } else { [b, a] });
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn edge_coefficients(coords: &[Vec3], tets: &[[u32; 4]], edges: &[[u32; 2]]) -> Vec<Vec3> {
    let mut coef = vec![Vec3::ZERO; edges.len()];
    for t in tets {
        let p = t.map(|v| coords[v as usize]);
        let g = (p[0] + p[1] + p[2] + p[3]) / 4.0;
        for le in &TET_EDGES {
            let (a, b) = (t[le[0]], t[le[1]]);
            let (pa, pb, pc, pd) = (p[le[0]], p[le[1]], p[le[2]], p[le[3]]);
            let m = (pa + pb) * 0.5;
            let f1 = (pa + pb + pc) / 3.0;
            let f2 = (pa + pb + pd) / 3.0;
            let piece = tri_area_vec(m, f1, g) + tri_area_vec(m, g, f2);
            let key = if a < b { [a, b] } else { [b, a] };
            let e = edges
                .binary_search(&key)
                .expect("tet edge in the edge list");
            if edges[e][0] == a {
                coef[e] += piece;
            } else {
                coef[e] -= piece;
            }
        }
    }
    coef
}

fn dual_volumes(coords: &[Vec3], tets: &[[u32; 4]]) -> Vec<f64> {
    let mut vol = vec![0.0; coords.len()];
    for t in tets {
        let p = t.map(|v| coords[v as usize]);
        let quarter = tet_volume(p[0], p[1], p[2], p[3]) / 4.0;
        for &k in t {
            vol[k as usize] += quarter;
        }
    }
    vol
}

fn face_key(mut f: [u32; 3]) -> [u32; 3] {
    f.sort_unstable();
    f
}

fn hashed_neighbors(tets: &[[u32; 4]]) -> Vec<[u32; 4]> {
    let mut map: HashMap<[u32; 3], (u32, u8)> = HashMap::new();
    let mut nbrs = vec![[u32::MAX; 4]; tets.len()];
    for (ti, t) in tets.iter().enumerate() {
        for (fi, lf) in TET_FACES.iter().enumerate() {
            match map.remove(&face_key(lf.map(|k| t[k]))) {
                Some((other_t, other_f)) => {
                    nbrs[ti][fi] = other_t;
                    nbrs[other_t as usize][other_f as usize] = ti as u32;
                }
                None => {
                    map.insert(face_key(lf.map(|k| t[k])), (ti as u32, fi as u8));
                }
            }
        }
    }
    nbrs
}

fn hashed_boundary_faces(tets: &[[u32; 4]]) -> Vec<[u32; 3]> {
    let mut map: HashMap<[u32; 3], [u32; 3]> = HashMap::new();
    for t in tets {
        for lf in &TET_FACES {
            let oriented = lf.map(|k| t[k]);
            if map.remove(&face_key(oriented)).is_none() {
                map.insert(face_key(oriented), oriented);
            }
        }
    }
    let mut out: Vec<[u32; 3]> = map.into_values().collect();
    out.sort_unstable();
    out
}

/// The adjacency walk over hashed neighbours, with the full centroid
/// scan as its fallback: returns the tet, the clamped weights and
/// whether the scan ran.
fn scan_locate(mesh: &TetMesh, nbrs: &[[u32; 4]], p: Vec3, seed: usize) -> (usize, [f64; 4], bool) {
    let clamp = |b: [f64; 4]| {
        let mut c = b.map(|w| w.clamp(0.0, 1.0));
        let s: f64 = c.iter().sum();
        if s > 0.0 {
            c = c.map(|w| w / s);
        } else {
            c = [0.25; 4];
        }
        c
    };
    let mut t = seed.min(mesh.ntets() - 1);
    for _ in 0..=mesh.ntets() {
        let bary = barycentric(mesh, t, p);
        let mut worst = 0;
        for k in 1..4 {
            if bary[k] < bary[worst] {
                worst = k;
            }
        }
        if bary[worst] >= -1e-12 {
            return (t, clamp(bary), false);
        }
        match nbrs[t][worst] {
            u32::MAX => break,
            next => t = next as usize,
        }
    }
    let best = mesh
        .tets
        .iter()
        .map(|t| t.map(|v| mesh.coords[v as usize]))
        .map(|c| ((c[0] + c[1] + c[2] + c[3]) / 4.0 - p).norm_sq())
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .expect("mesh has tets");
    (best, clamp(barycentric(mesh, best, p)), true)
}

/// The operator from `src` onto `dst`'s vertices, and how many of them
/// needed the scan.
fn scan_interp(src: &TetMesh, dst: &TetMesh) -> (InterpOps, usize) {
    let nbrs = hashed_neighbors(&src.tets);
    let (mut addr, mut w) = (Vec::new(), Vec::new());
    let (mut seed, mut scans) = (0, 0);
    for &p in &dst.coords {
        let (t, bary, scanned) = scan_locate(src, &nbrs, p, seed);
        seed = t;
        scans += scanned as usize;
        addr.push(src.tets[t]);
        w.push(bary);
    }
    let ops = InterpOps {
        addr,
        w,
        nsrc: src.nverts(),
    };
    (ops, scans)
}

fn vec_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn assert_matches_oracles(name: &str, m: &TetMesh) {
    let edges = extract_edges(&m.tets);
    assert_eq!(m.edges, edges, "{name}: edges");
    assert_eq!(
        vec_bits(&m.edge_coef),
        vec_bits(&edge_coefficients(&m.coords, &m.tets, &edges)),
        "{name}: edge_coef"
    );
    let vol: Vec<u64> = dual_volumes(&m.coords, &m.tets)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        m.vol.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        vol,
        "{name}: vol"
    );
    let bfaces = hashed_boundary_faces(&m.tets);
    assert_eq!(
        m.bfaces.iter().map(|f| f.v).collect::<Vec<_>>(),
        bfaces,
        "{name}: bfaces"
    );
    let normals: Vec<Vec3> = bfaces
        .iter()
        .map(|f| {
            tri_area_vec(
                m.coords[f[0] as usize],
                m.coords[f[1] as usize],
                m.coords[f[2] as usize],
            )
        })
        .collect();
    let ours: Vec<Vec3> = m.bfaces.iter().map(|f| f.normal).collect();
    assert_eq!(vec_bits(&ours), vec_bits(&normals), "{name}: bface normals");
    let nbrs = tet_neighbors(&m.tets, &vertex_tets(m.nverts(), &m.tets)).expect("conforming");
    assert_eq!(nbrs, hashed_neighbors(&m.tets), "{name}: neighbours");
}

fn assert_same_ops(name: &str, ours: &InterpOps, oracle: &InterpOps) {
    assert_eq!(ours.nsrc, oracle.nsrc, "{name}: nsrc");
    assert_eq!(ours.addr, oracle.addr, "{name}: addresses");
    let bits =
        |w: &[[f64; 4]]| -> Vec<[u64; 4]> { w.iter().map(|w| w.map(f64::to_bits)).collect() };
    assert_eq!(bits(&ours.w), bits(&oracle.w), "{name}: weights");
}

fn small_bump(jitter: f64, seed: u64) -> BumpSpec {
    BumpSpec {
        nx: 10,
        ny: 4,
        nz: 3,
        jitter,
        seed,
        ..BumpSpec::channel(10)
    }
}

#[test]
fn topology_matches_the_sort_and_hash_oracles() {
    for (jitter, seed) in [(0.0, 1), (0.12, 1), (0.12, 7)] {
        let m = bump_channel(&small_bump(jitter, seed));
        assert_matches_oracles(&format!("bump jitter {jitter} seed {seed}"), &m);
    }
    assert_matches_oracles("unit_box", &unit_box(4, 0.2, 3));
    let wedge = WedgeSpec {
        nx: 8,
        ny: 4,
        nz: 2,
        ..WedgeSpec::default()
    };
    assert_matches_oracles("wedge_channel", &wedge_channel(&wedge));
    let coarse = bump_channel(&BumpSpec {
        taper: 0.4,
        ..small_bump(0.1, 5)
    });
    assert_matches_oracles("refine_uniform", &refine_uniform(&coarse));
}

#[test]
fn interp_ops_match_the_scan_oracle_both_ways() {
    let seq = MeshSequence::bump_sequence(&small_bump(0.12, 42), 3);
    let mut scans = 0;
    for l in 0..seq.levels() - 1 {
        let (fine, coarse) = (&seq.meshes[l], &seq.meshes[l + 1]);
        for (name, ours, (oracle, n)) in [
            ("to_coarse", &seq.to_coarse[l], scan_interp(fine, coarse)),
            ("to_fine", &seq.to_fine[l], scan_interp(coarse, fine)),
        ] {
            assert_same_ops(&format!("{name}[{l}]"), ours, &oracle);
            scans += n;
        }
    }
    // Unrelated meshes bound different volumes near the curved bump, so
    // some vertices lie outside the other mesh and take the fallback.
    assert!(
        scans > 0,
        "no vertex exercised the nearest-centroid fallback"
    );
}
