//! The builder [`build_bvh`](super::build::build_bvh) replaced, kept as the
//! oracle it is held to: it scans every node's primitives for its bounds and
//! centroid bounds with `f32::min`/`max`, and recomputes each primitive's bin
//! in the partition. `build_range`, `choose_split` and `partition_in_place`
//! are verbatim but for the dropped construction-strategy parameter, whose
//! SAH arm is the only one left.

use crate::geom::{Primitive, Triangle};
use crate::material::MaterialId;
use crate::math::{Aabb, Vec3};

use super::flat::{Bvh, FlatNode, MAX_DEPTH};

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

/// The reference builder's BVH over `prims`.
pub(crate) fn reference_bvh(prims: &[Primitive]) -> Bvh {
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
    build_range(&mut nodes, &mut info, 0, len, 0);
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
) -> u32 {
    let mut bounds = Aabb::empty();
    let mut centroid_bounds = Aabb::empty();
    for p in &info[start..end] {
        bounds = bounds.union(&p.bounds);
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

    let sah_mid = choose_split(info, start, end, axis, centroid_bounds);
    let mid = sah_mid.unwrap_or_else(|| {
        // Median split (also the SAH fallback when no bin split helps).
        info[start..end].sort_unstable_by(|a, b| a.centroid[axis].total_cmp(&b.centroid[axis]));
        start + count / 2
    });

    // Placeholder; patched after children are built.
    nodes.push(FlatNode::leaf(bounds, 0, 0));
    let _left = build_range(nodes, info, start, mid, depth + 1);
    let right = build_range(nodes, info, mid, end, depth + 1);
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
        bin_bounds[b] = bin_bounds[b].union(&p.bounds);
    }

    // Sweep from the right to accumulate suffix areas.
    let mut right_area = [0.0f32; SAH_BINS];
    let mut acc = Aabb::empty();
    let mut right_count = [0usize; SAH_BINS];
    let mut rc = 0;
    for i in (1..SAH_BINS).rev() {
        acc = acc.union(&bin_bounds[i]);
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
        left_box = left_box.union(&bin_bounds[i]);
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

/// Triangles centred along the three axes at distances growing 17-fold,
/// each large enough to reach back over the origin. On whichever axis is
/// longest, all centroids but the farthest share the first SAH bin, so
/// every split peels off exactly one triangle: the tree is a chain as
/// deep as the builder allows, and every node's box holds the origin.
pub(crate) fn axis_star() -> Vec<Primitive> {
    let mut prims = Vec::new();
    for step in 0..19 {
        let d = 1e-6 * 17f32.powi(step);
        for axis in [Vec3::X, Vec3::Y, Vec3::Z] {
            let c = axis * d;
            let (u, v) = (
                Vec3::new(2.0, -1.5, 0.5) * d,
                Vec3::new(-0.5, 2.0, -1.5) * d,
            );
            prims.push(Primitive::Triangle(Triangle::new(
                c + u,
                c + v,
                c - u - v,
                MaterialId(0),
            )));
        }
    }
    prims
}
