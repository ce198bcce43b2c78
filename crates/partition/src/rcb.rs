//! Recursive coordinate bisection (RCB): a cheap geometric baseline
//! partitioner. Splits the current vertex set at the weighted median of
//! the longest bounding-box axis. Used as the ablation comparator for RSB
//! (good balance, usually more cut edges on irregular geometries).

use eul3d_mesh::Vec3;

use crate::bisection::{recursive_bisection, Split};

/// Partition vertices (given their coordinates) into `nparts` pieces by
/// recursive coordinate bisection.
pub fn rcb_partition(coords: &[Vec3], nparts: usize) -> Vec<u32> {
    let split = |verts: &[u32], _: &[[u32; 2]], np_left: usize, np_right: usize| {
        // Longest axis of the subset's bounding box.
        let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut hi = -lo;
        for &v in verts {
            lo = lo.min(coords[v as usize]);
            hi = hi.max(coords[v as usize]);
        }
        let ext = hi - lo;
        let axis = if ext.x >= ext.y && ext.x >= ext.z {
            0
        } else if ext.y >= ext.z {
            1
        } else {
            2
        };
        let at = |l: u32| coords[verts[l as usize] as usize].axis(axis);
        let mut order: Vec<u32> = (0..verts.len() as u32).collect();
        order.sort_by(|&a, &b| {
            at(a)
                .partial_cmp(&at(b))
                .unwrap()
                .then(verts[a as usize].cmp(&verts[b as usize]))
        });
        Split {
            cut: order.len() * np_left / (np_left + np_right),
            order,
            iterations: 0,
        }
    };
    // Geometry needs no edges: every subset's induced edge list is empty.
    recursive_bisection(coords.len(), &[], nparts, split).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::recount;
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn rcb_is_balanced() {
        let m = unit_box(6, 0.2, 4);
        let p = rcb_partition(&m.coords, 8);
        let q = recount(&p, 8, &m.edges);
        assert!(q.balance < 1.05, "{q:?}");
    }

    #[test]
    fn rcb_two_parts_split_longest_axis() {
        // A slab longer in x must be split by an x plane.
        let coords: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(i as f64, (i % 3) as f64 * 0.1, 0.0))
            .collect();
        let p = rcb_partition(&coords, 2);
        for (i, &r) in p.iter().enumerate() {
            assert_eq!(r, if i < 50 { 0 } else { 1 });
        }
    }

    #[test]
    fn rcb_nparts_one() {
        let coords = vec![Vec3::ZERO; 10];
        assert!(rcb_partition(&coords, 1).iter().all(|&r| r == 0));
    }

    #[test]
    fn rcb_cut_quality_beats_random() {
        let m = unit_box(6, 0.15, 5);
        let p = rcb_partition(&m.coords, 4);
        let q = recount(&p, 4, &m.edges);
        let pr = crate::random_partition(m.nverts(), 4, 2);
        let qr = recount(&pr, 4, &m.edges);
        assert!(q.edge_cut < qr.edge_cut);
    }
}
