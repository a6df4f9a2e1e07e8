//! Binned surface-area-heuristic (SAH) BVH construction.

use crate::geom::Primitive;
use crate::math::Aabb;

use super::flat::{Bvh, FlatNode, MAX_DEPTH};

/// BVH construction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildMethod {
    /// Binned surface-area-heuristic build (the default; best traversal
    /// quality).
    #[default]
    BinnedSah,
    /// Object-median split along the widest centroid axis (fast, lower
    /// quality). Kept as an ablation baseline: BVH quality shifts the
    /// whole workload's traversal cost.
    MedianSplit,
}

/// Number of SAH candidate bins per axis.
const SAH_BINS: usize = 16;
/// Maximum primitives allowed in a leaf.
const MAX_LEAF_PRIMS: usize = 4;

#[derive(Clone, Copy)]
struct PrimInfo {
    index: u32,
    bounds: Aabb,
    centroid: [f32; 3],
}

/// Builds a BVH over `prims` using binned SAH with a median-split fallback.
///
/// Returns an empty (single empty-leaf) BVH for an empty primitive list so
/// that traversal of empty scenes is well defined.
pub fn build_bvh(prims: &[Primitive]) -> Bvh {
    build_bvh_with(prims, BuildMethod::BinnedSah)
}

/// Builds a BVH over `prims` with an explicit construction strategy.
pub fn build_bvh_with(prims: &[Primitive], method: BuildMethod) -> Bvh {
    if prims.is_empty() {
        return Bvh::new(vec![FlatNode::leaf(Aabb::empty(), 0, 0)], Vec::new());
    }

    let mut info: Vec<PrimInfo> = prims
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let c = p.centroid();
            PrimInfo {
                index: i as u32,
                bounds: p.bounds(),
                centroid: [c.x, c.y, c.z],
            }
        })
        .collect();

    let mut nodes: Vec<FlatNode> = Vec::with_capacity(prims.len() * 2);
    let len = info.len();
    build_range(&mut nodes, &mut info, 0, len, 0, method);
    let order: Vec<u32> = info.iter().map(|p| p.index).collect();
    Bvh::new(nodes, order)
}

/// Recursively builds the subtree covering `info[start..end]`, appending
/// nodes depth-first so a parent's left child is always at `parent + 1`.
/// Returns the index of the created node.
fn build_range(
    nodes: &mut Vec<FlatNode>,
    info: &mut [PrimInfo],
    start: usize,
    end: usize,
    depth: usize,
    method: BuildMethod,
) -> u32 {
    let mut bounds = Aabb::empty();
    let mut centroid_bounds = Aabb::empty();
    for p in &info[start..end] {
        bounds.grow_box(&p.bounds);
        centroid_bounds.grow_point(p.centroid.into());
    }

    let node_index = nodes.len() as u32;
    let count = end - start;

    // A branch that reaches the traversal stack's depth limit (only a
    // pathologically skewed split sequence does) ends in an oversized leaf.
    if count <= MAX_LEAF_PRIMS || depth == MAX_DEPTH {
        nodes.push(FlatNode::leaf(bounds, start as u32, count as u32));
        return node_index;
    }

    let extent = centroid_bounds.extent();
    let axis = extent.largest_axis();
    if extent[axis] < 1e-8 {
        // Degenerate spread: all centroids coincide. Make a leaf.
        nodes.push(FlatNode::leaf(bounds, start as u32, count as u32));
        return node_index;
    }

    let sah_mid = match method {
        BuildMethod::BinnedSah => choose_split(info, start, end, axis, centroid_bounds),
        BuildMethod::MedianSplit => None,
    };
    let mid = sah_mid.unwrap_or_else(|| {
        // Median split (also the SAH fallback when no bin split helps).
        info[start..end].sort_unstable_by(|a, b| a.centroid[axis].total_cmp(&b.centroid[axis]));
        start + count / 2
    });

    // Placeholder; patched after children are built.
    nodes.push(FlatNode::leaf(bounds, 0, 0));
    let _left = build_range(nodes, info, start, mid, depth + 1, method);
    let right = build_range(nodes, info, mid, end, depth + 1, method);
    nodes[node_index as usize] = FlatNode::interior(bounds, right, axis as u8);
    node_index
}

/// Binned SAH split. Partitions `info[start..end]` in place and returns the
/// split midpoint, or `None` if no split beats making a leaf impossible
/// (we always split when `count > MAX_LEAF_PRIMS`, choosing the best bin).
fn choose_split(
    info: &mut [PrimInfo],
    start: usize,
    end: usize,
    axis: usize,
    centroid_bounds: Aabb,
) -> Option<usize> {
    let lo = centroid_bounds.min[axis];
    let hi = centroid_bounds.max[axis];
    let scale = SAH_BINS as f32 / (hi - lo);
    let bin_of = |c: f32| -> usize { (((c - lo) * scale) as usize).min(SAH_BINS - 1) };

    let mut bin_bounds = [Aabb::empty(); SAH_BINS];
    let mut bin_counts = [0usize; SAH_BINS];
    for p in &info[start..end] {
        let b = bin_of(p.centroid[axis]);
        bin_counts[b] += 1;
        bin_bounds[b].grow_box(&p.bounds);
    }

    // Sweep from the right to accumulate suffix areas.
    let mut right_area = [0.0f32; SAH_BINS];
    let mut acc = Aabb::empty();
    let mut right_count = [0usize; SAH_BINS];
    let mut rc = 0;
    for i in (1..SAH_BINS).rev() {
        acc.grow_box(&bin_bounds[i]);
        rc += bin_counts[i];
        right_area[i] = acc.surface_area();
        right_count[i] = rc;
    }

    // Sweep from the left, evaluating cost of splitting after each bin.
    let mut best_cost = f32::INFINITY;
    let mut best_bin = None;
    let mut left_box = Aabb::empty();
    let mut left_count = 0usize;
    for i in 0..SAH_BINS - 1 {
        left_box.grow_box(&bin_bounds[i]);
        left_count += bin_counts[i];
        if left_count == 0 || right_count[i + 1] == 0 {
            continue;
        }
        let cost = left_box.surface_area() * left_count as f32
            + right_area[i + 1] * right_count[i + 1] as f32;
        if cost < best_cost {
            best_cost = cost;
            best_bin = Some(i);
        }
    }

    let split_bin = best_bin?;
    let mid = partition_in_place(&mut info[start..end], |p| {
        bin_of(p.centroid[axis]) <= split_bin
    });
    if mid == 0 || mid == end - start {
        return None;
    }
    Some(start + mid)
}

/// Partitions a slice so elements satisfying `pred` come first; returns the
/// count of such elements. Order within groups is not preserved.
fn partition_in_place<T, F: Fn(&T) -> bool>(items: &mut [T], pred: F) -> usize {
    let mut i = 0;
    let mut j = items.len();
    while i < j {
        if pred(&items[i]) {
            i += 1;
        } else {
            j -= 1;
            items.swap(i, j);
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Sphere, Triangle};
    use crate::material::MaterialId;
    use crate::math::{Pcg, Vec3};

    fn random_tris(n: usize, seed: u64) -> Vec<Primitive> {
        let mut rng = Pcg::new(seed);
        (0..n)
            .map(|_| {
                let base = Vec3::new(
                    rng.range_f32(-10.0, 10.0),
                    rng.range_f32(-10.0, 10.0),
                    rng.range_f32(-10.0, 10.0),
                );
                Primitive::Triangle(Triangle::new(
                    base,
                    base + Vec3::new(rng.next_f32(), 0.0, rng.next_f32()),
                    base + Vec3::new(0.0, rng.next_f32(), rng.next_f32()),
                    MaterialId(0),
                ))
            })
            .collect()
    }

    #[test]
    fn empty_scene_builds_empty_leaf() {
        let bvh = build_bvh(&[]);
        assert_eq!(bvh.node_count(), 1);
        assert_eq!(bvh.primitive_order().len(), 0);
    }

    #[test]
    fn single_primitive_is_one_leaf() {
        let prims = vec![Primitive::Sphere(Sphere::new(
            Vec3::ZERO,
            1.0,
            MaterialId(0),
        ))];
        let bvh = build_bvh(&prims);
        assert_eq!(bvh.node_count(), 1);
        assert_eq!(bvh.primitive_order(), &[0]);
    }

    #[test]
    fn order_is_a_permutation() {
        let prims = random_tris(500, 1);
        let bvh = build_bvh(&prims);
        let mut order: Vec<u32> = bvh.primitive_order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn leaves_respect_max_size() {
        let prims = random_tris(300, 2);
        let bvh = build_bvh(&prims);
        for node in bvh.nodes() {
            if node.is_leaf() {
                assert!(node.prim_count() as usize <= MAX_LEAF_PRIMS);
            }
        }
    }

    #[test]
    fn identical_centroids_terminate() {
        // All primitives piled on the same spot: must not recurse forever.
        let s = Sphere::new(Vec3::ZERO, 1.0, MaterialId(0));
        let prims: Vec<Primitive> = (0..64).map(|_| Primitive::Sphere(s)).collect();
        let bvh = build_bvh(&prims);
        assert!(bvh.node_count() >= 1);
    }

    #[test]
    fn median_build_order_is_permutation() {
        let prims = random_tris(300, 4);
        let bvh = build_bvh_with(&prims, BuildMethod::MedianSplit);
        let mut order: Vec<u32> = bvh.primitive_order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn sah_beats_median_on_clustered_geometry() {
        use crate::math::{Ray, Vec3};
        // Two dense clusters far apart: SAH separates them immediately,
        // the median split produces a decent tree too, but SAH should
        // never traverse more on average.
        let mut rng = Pcg::new(8);
        let mut prims: Vec<Primitive> = Vec::new();
        for cluster in [Vec3::new(-50.0, 0.0, 0.0), Vec3::new(50.0, 0.0, 0.0)] {
            for _ in 0..400 {
                let base = cluster
                    + Vec3::new(
                        rng.range_f32(-2.0, 2.0),
                        rng.range_f32(-2.0, 2.0),
                        rng.range_f32(-2.0, 2.0),
                    );
                prims.push(Primitive::Triangle(Triangle::new(
                    base,
                    base + Vec3::new(0.4, 0.0, 0.1),
                    base + Vec3::new(0.0, 0.4, 0.1),
                    MaterialId(0),
                )));
            }
        }
        let sah = build_bvh_with(&prims, BuildMethod::BinnedSah);
        let median = build_bvh_with(&prims, BuildMethod::MedianSplit);
        let mut sah_work = 0u64;
        let mut median_work = 0u64;
        for i in 0..200u64 {
            let mut r = Pcg::for_index(9, i);
            let origin = Vec3::new(r.range_f32(-60.0, 60.0), r.range_f32(-5.0, 5.0), -30.0);
            let ray = Ray::new(origin, Vec3::Z);
            let (h1, s1) = sah.intersect(&ray, &prims);
            let (h2, s2) = median.intersect(&ray, &prims);
            assert_eq!(h1.map(|h| h.primitive), h2.map(|h| h.primitive), "ray {i}");
            sah_work += s1.work();
            median_work += s2.work();
        }
        assert!(
            sah_work <= median_work,
            "SAH ({sah_work}) should not traverse more than median ({median_work})"
        );
    }

    #[test]
    fn parent_bounds_contain_children() {
        let prims = random_tris(200, 3);
        let bvh = build_bvh(&prims);
        let nodes = bvh.nodes();
        for (i, node) in nodes.iter().enumerate() {
            if !node.is_leaf() {
                let left = &nodes[i + 1];
                let right = &nodes[node.right_child() as usize];
                let union = left.bounds().union(&right.bounds());
                assert!(node.bounds().contains_point(union.min));
                assert!(node.bounds().contains_point(union.max));
            }
        }
    }
}
