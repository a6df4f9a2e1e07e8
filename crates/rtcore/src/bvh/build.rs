//! Binned surface-area-heuristic (SAH) BVH construction.
//!
//! One recursion splits each node at the best of [`SAH_BINS`] centroid bins
//! along its widest centroid axis, and falls back to the object median when
//! no bin boundary separates the primitives. A node's one pass over its
//! primitives does all of its per-primitive work: it computes each
//! primitive's bin once, keeps it in a byte tag that the partition swaps
//! alongside the primitive, and accumulates every bin's bounds *and* centroid
//! bounds. A child's boxes are then the union of its bins. Only the root and
//! the two halves of a median split are scanned. The boxes a pass
//! accumulates are four lanes wide, the fourth unused, so growing one is a
//! vector instruction per corner.
//!
//! The tree is bit-identical to the one built by scanning every node's
//! primitives with `f32::min`/`max` (`reference.rs` keeps that builder as
//! the test oracle), sign of zero included:
//! - Boxes grow by compare-select, `if b < a { b } else { a }` and the `>`
//!   form. The accumulator starts at ±∞, so it is never NaN, and a NaN
//!   operand leaves it unchanged, as `f32::min` does. On equal operands both
//!   keep the accumulator: on x86-64 `f32::min` lowers to `minss` with the
//!   accumulator as the tie result. The SAH sweep's boxes, and so its areas
//!   and split choices, are therefore the reference's bits.
//! - Folded that way, a set of values gives the same bits in any order
//!   unless it holds both zeros, because a tie between `-0.0` and `0.0` keeps
//!   whichever came first. So a union of bins equals a scan of the child's
//!   primitives whenever no primitive has a negative-zero coordinate; when
//!   one does, every node is scanned instead.
//! - The bin index goes through `as u32` rather than `as usize`. Both
//!   saturate (NaN gives 0), so after `.min(SAH_BINS - 1)` they agree for
//!   every input.

use std::ops::Range;

use crate::geom::Primitive;
use crate::math::{Aabb, Vec3};

use super::flat::{Bvh, FlatNode, MAX_DEPTH};

/// Number of SAH candidate bins per axis.
const SAH_BINS: usize = 16;
/// Maximum primitives allowed in a leaf.
const MAX_LEAF_PRIMS: usize = 4;

/// A point's `x`, `y`, `z` and an unused fourth lane.
type Lanes = [f32; 4];

/// A box as two corners of [`Lanes`].
#[derive(Clone, Copy)]
struct Corners {
    min: Lanes,
    max: Lanes,
}

impl Corners {
    const EMPTY: Corners = Corners {
        min: [f32::INFINITY; 4],
        max: [f32::NEG_INFINITY; 4],
    };

    /// Grows the box to contain `[min, max]` by compare-select, which equals
    /// `f32::min`/`max` for a non-NaN accumulator.
    #[inline(always)]
    fn grow(&mut self, min: &Lanes, max: &Lanes) {
        let lo = |a: f32, v: f32| if v < a { v } else { a };
        let hi = |a: f32, v: f32| if v > a { v } else { a };
        let [a, b, c, d] = self.min;
        self.min = [lo(a, min[0]), lo(b, min[1]), lo(c, min[2]), lo(d, min[3])];
        let [a, b, c, d] = self.max;
        self.max = [hi(a, max[0]), hi(b, max[1]), hi(c, max[2]), hi(d, max[3])];
    }

    fn aabb(&self) -> Aabb {
        let [min, max] = [self.min, self.max].map(|[x, y, z, _]| Vec3::new(x, y, z));
        Aabb { min, max }
    }
}

/// `v` as [`Lanes`].
fn lanes(v: Vec3) -> Lanes {
    [v.x, v.y, v.z, 0.0]
}

/// A primitive as the builder sorts and partitions it: the scanning
/// builder's 40-byte record, so the transient array is the same size and
/// the median split's unstable sort, whose tie order depends on its element
/// type, breaks ties the same way.
#[derive(Clone, Copy)]
struct PrimInfo {
    index: u32,
    bounds: Aabb,
    centroid: [f32; 3],
}

impl PrimInfo {
    /// Whether a coordinate of the primitive's box or centroid is `-0.0`.
    fn has_negative_zero(&self) -> bool {
        let (b, c) = (&self.bounds, &self.centroid);
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z]
            .iter()
            .chain(c)
            .any(|v| v.to_bits() == (-0.0f32).to_bits())
    }
}

/// The boxes of a set of primitives: their bounds and their centroids'.
#[derive(Clone, Copy)]
struct Boxes {
    bounds: Corners,
    centroids: Corners,
}

impl Boxes {
    const EMPTY: Boxes = Boxes {
        bounds: Corners::EMPTY,
        centroids: Corners::EMPTY,
    };

    #[inline(always)]
    fn add(&mut self, p: &PrimInfo) {
        self.bounds.grow(&lanes(p.bounds.min), &lanes(p.bounds.max));
        let c = lanes(p.centroid.into());
        self.centroids.grow(&c, &c);
    }

    fn merge(&mut self, other: &Boxes) {
        self.bounds.grow(&other.bounds.min, &other.bounds.max);
        self.centroids
            .grow(&other.centroids.min, &other.centroids.max);
    }

    fn scan(info: &[PrimInfo]) -> Boxes {
        let mut boxes = Boxes::EMPTY;
        for p in info {
            boxes.add(p);
        }
        boxes
    }
}

/// One SAH bin: the primitives whose centroid falls in it.
#[derive(Clone, Copy)]
struct Bin {
    boxes: Boxes,
    count: usize,
}

/// Builds a BVH over `prims` using binned SAH with a median-split fallback.
///
/// Returns an empty (single empty-leaf) BVH for an empty primitive list so
/// that traversal of empty scenes is well defined.
pub(crate) fn build_bvh(prims: &[Primitive]) -> Bvh {
    if prims.is_empty() {
        return Bvh::new(vec![FlatNode::leaf(Aabb::empty(), 0, 0)], Vec::new());
    }

    let info: Vec<PrimInfo> = prims
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
    let mut builder = Builder {
        nodes: Vec::with_capacity(prims.len() * 2),
        scan_every_node: info.iter().any(PrimInfo::has_negative_zero),
        tags: vec![0; info.len()],
        info,
    };
    let root = Boxes::scan(&builder.info);
    builder.build(0..prims.len(), 0, root);
    let order: Vec<u32> = builder.info.iter().map(|p| p.index).collect();
    Bvh::new(builder.nodes, order)
}

struct Builder {
    /// The tree so far, depth-first: a parent's left child is at
    /// `parent + 1`.
    nodes: Vec<FlatNode>,
    info: Vec<PrimInfo>,
    /// Each primitive's SAH bin at the node being split, swapped alongside
    /// `info`.
    tags: Vec<u8>,
    /// Some primitive has a negative-zero coordinate, so a union of bins
    /// may differ from a scan in the sign of a zero: scan every child.
    scan_every_node: bool,
}

impl Builder {
    /// Recursively builds the subtree over primitives `range`, whose boxes
    /// are `boxes`. Returns the index of the created node.
    fn build(&mut self, range: Range<usize>, depth: usize, boxes: Boxes) -> u32 {
        let node_index = self.nodes.len() as u32;
        let count = range.len();
        let bounds = boxes.bounds.aabb();
        let leaf = FlatNode::leaf(bounds, range.start as u32, count as u32);

        // A branch that reaches the traversal stack's depth limit (only a
        // pathologically skewed split sequence does) ends in an oversized leaf.
        if count <= MAX_LEAF_PRIMS || depth == MAX_DEPTH {
            self.nodes.push(leaf);
            return node_index;
        }

        let centroids = boxes.centroids.aabb();
        let extent = centroids.extent();
        let axis = extent.largest_axis();
        if extent[axis] < 1e-8 {
            // Degenerate spread: all centroids coincide. Make a leaf.
            self.nodes.push(leaf);
            return node_index;
        }

        let (start, end) = (range.start, range.end);
        let (mid, left, right) = match self.sah_split(range.clone(), axis, &centroids) {
            Some((mid, left, right)) if !self.scan_every_node => (mid, left, right),
            Some((mid, ..)) => (mid, self.scan(start..mid), self.scan(mid..end)),
            None => {
                // Median split (the SAH fallback when no bin boundary
                // separates the primitives).
                self.info[range]
                    .sort_unstable_by(|a, b| a.centroid[axis].total_cmp(&b.centroid[axis]));
                let mid = start + count / 2;
                (mid, self.scan(start..mid), self.scan(mid..end))
            }
        };

        // Placeholder; patched after children are built.
        self.nodes.push(leaf);
        self.build(start..mid, depth + 1, left);
        let right = self.build(mid..end, depth + 1, right);
        self.nodes[node_index as usize] = FlatNode::interior(bounds, right, axis as u8);
        node_index
    }

    fn scan(&self, range: Range<usize>) -> Boxes {
        Boxes::scan(&self.info[range])
    }

    /// Binned SAH split of primitives `range` along `axis`, whose centroid
    /// box is `centroids`. Partitions the range in place and returns the
    /// split point with each side's boxes, or `None` if every centroid falls
    /// in one bin.
    fn sah_split(
        &mut self,
        range: Range<usize>,
        axis: usize,
        centroids: &Aabb,
    ) -> Option<(usize, Boxes, Boxes)> {
        let lo = centroids.min[axis];
        let hi = centroids.max[axis];
        let scale = SAH_BINS as f32 / (hi - lo);

        let mut bins = [Bin {
            boxes: Boxes::EMPTY,
            count: 0,
        }; SAH_BINS];
        let tags = &mut self.tags[range.clone()];
        for (p, tag) in self.info[range.clone()].iter().zip(tags) {
            let b = (((p.centroid[axis] - lo) * scale) as u32).min(SAH_BINS as u32 - 1);
            *tag = b as u8;
            let bin = &mut bins[b as usize];
            bin.count += 1;
            bin.boxes.add(p);
        }

        // Sweep from the right to accumulate suffix areas.
        let mut right_area = [0.0f32; SAH_BINS];
        let mut acc = Corners::EMPTY;
        let mut right_count = [0usize; SAH_BINS];
        let mut rc = 0;
        for i in (1..SAH_BINS).rev() {
            acc.grow(&bins[i].boxes.bounds.min, &bins[i].boxes.bounds.max);
            rc += bins[i].count;
            right_area[i] = acc.aabb().surface_area();
            right_count[i] = rc;
        }

        // Sweep from the left, evaluating cost of splitting after each bin.
        let mut best_cost = f32::INFINITY;
        let mut best_bin = None;
        let mut left_box = Corners::EMPTY;
        let mut left_count = 0usize;
        for i in 0..SAH_BINS - 1 {
            left_box.grow(&bins[i].boxes.bounds.min, &bins[i].boxes.bounds.max);
            left_count += bins[i].count;
            if left_count == 0 || right_count[i + 1] == 0 {
                continue;
            }
            let cost = left_box.aabb().surface_area() * left_count as f32
                + right_area[i + 1] * right_count[i + 1] as f32;
            if cost < best_cost {
                best_cost = cost;
                best_bin = Some(i);
            }
        }

        let split = best_bin?;
        let mid = self.partition(range, split as u8);
        let union = |bins: &[Bin]| {
            let mut boxes = Boxes::EMPTY;
            for bin in bins {
                boxes.merge(&bin.boxes);
            }
            boxes
        };
        Some((mid, union(&bins[..=split]), union(&bins[split + 1..])))
    }

    /// Partitions primitives `range` so those whose tag is at most `split`
    /// come first, swapping the tags alongside; returns where the rest
    /// begin. Order within the two sides is not preserved.
    fn partition(&mut self, range: Range<usize>, split: u8) -> usize {
        let (mut i, mut j) = (range.start, range.end);
        while i < j {
            if self.tags[i] <= split {
                i += 1;
            } else {
                j -= 1;
                self.info.swap(i, j);
                self.tags.swap(i, j);
            }
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::reference::{axis_star, reference_bvh};
    use crate::geom::{Sphere, Triangle};
    use crate::material::MaterialId;
    use crate::math::Pcg;
    use minijson::ToJson;
    use proptest::prelude::*;

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

    /// Two clusters so far apart that the centroid extent overflows to
    /// infinity: every centroid lands in one bin, so the root takes the
    /// median-split fallback.
    fn overflowing_clusters(n: usize) -> Vec<Primitive> {
        let mut rng = Pcg::new(4);
        (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { -3e38 } else { 3e38 };
                let c = Vec3::new(side, rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0));
                Primitive::Sphere(Sphere::new(c, 0.5, MaterialId(0)))
            })
            .collect()
    }

    #[test]
    fn median_build_order_is_permutation() {
        let prims = overflowing_clusters(300);
        let bvh = build_bvh(&prims);
        // The median split puts half of the primitives left of the root.
        let root = bvh.nodes()[0];
        assert!(!root.is_leaf());
        let left_end = bvh.nodes()[..root.right_child() as usize]
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.first_prim() + n.prim_count())
            .max();
        assert_eq!(left_end, Some(150));
        let mut order: Vec<u32> = bvh.primitive_order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..300).collect::<Vec<u32>>());
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

    /// The builder's tree as JSON text: every box bit (minijson prints `-0`),
    /// child link, split axis and the primitive order.
    fn tree_text(bvh: &Bvh) -> String {
        bvh.to_json().to_string()
    }

    #[test]
    fn fixtures_match_the_reference_builder() {
        // The median splits of every small cluster pair: the unstable sort
        // orders their many tied centroids by its element type's strategy.
        let medians = (5..80).map(overflowing_clusters);
        for prims in [axis_star(), random_tris(3000, 5)]
            .into_iter()
            .chain(medians)
        {
            assert_eq!(
                tree_text(&build_bvh(&prims)),
                tree_text(&reference_bvh(&prims)),
                "{} primitives",
                prims.len()
            );
        }
    }

    /// Where a soup's coordinates come from.
    #[derive(Debug, Clone, Copy)]
    enum Palette {
        /// Any float in a range.
        Range,
        /// Nine grid values, zero among them: duplicate coordinates and
        /// coincident centroids.
        Grid,
        /// The grid, with each zero negative half of the time.
        SignedGrid,
    }

    fn coord(rng: &mut Pcg, palette: Palette) -> f32 {
        let grid = (rng.next_below(9) as f32 - 4.0) * 0.5;
        match palette {
            Palette::Range => rng.range_f32(-10.0, 10.0),
            Palette::Grid => grid,
            Palette::SignedGrid if grid == 0.0 && rng.next_below(2) == 0 => -0.0,
            Palette::SignedGrid => grid,
        }
    }

    /// `n` triangles and spheres drawn from `seed` with coordinates from
    /// `palette`. `flat` pins every z to zero (of either sign under
    /// [`Palette::SignedGrid`], else `0.0`): a zero-extent axis. `far` moves
    /// half of the primitives 10⁶ along x: two clusters. `repeats` makes a
    /// quarter of them copies of earlier ones.
    fn soup(
        n: usize,
        seed: u64,
        palette: Palette,
        flat: bool,
        far: bool,
        repeats: bool,
    ) -> Vec<Primitive> {
        let mut rng = Pcg::new(seed);
        let mut prims: Vec<Primitive> = Vec::with_capacity(n);
        for _ in 0..n {
            if repeats && !prims.is_empty() && rng.next_below(4) == 0 {
                prims.push(prims[rng.next_below(prims.len())]);
                continue;
            }
            let shifted = far && rng.next_below(2) == 0;
            let point = |rng: &mut Pcg| {
                let (x, y, z) = (
                    coord(rng, palette),
                    coord(rng, palette),
                    coord(rng, palette),
                );
                let z = match (flat, palette) {
                    (false, _) => z,
                    (true, Palette::SignedGrid) => z * 0.0,
                    (true, _) => 0.0,
                };
                Vec3::new(if shifted { x + 1e6 } else { x }, y, z)
            };
            let a = point(&mut rng);
            prims.push(if rng.next_below(3) == 0 {
                let radius = [0.25, 0.5, 1.0][rng.next_below(3)];
                Primitive::Sphere(Sphere::new(a, radius, MaterialId(0)))
            } else {
                let (b, c) = (point(&mut rng), point(&mut rng));
                Primitive::Triangle(Triangle::new(a, b, c, MaterialId(0)))
            });
        }
        prims
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The builder lays out exactly the tree of the reference builder,
        /// which scans every node's primitives: same boxes to the bit, same
        /// links, axes and primitive order.
        #[test]
        fn builder_matches_the_reference(
            n in prop_oneof![0usize..64, 0usize..3000],
            seed in any::<u64>(),
            palette in prop_oneof![
                Just(Palette::Range),
                Just(Palette::Grid),
                Just(Palette::SignedGrid),
            ],
            flat in any::<bool>(),
            far in any::<bool>(),
            repeats in any::<bool>(),
        ) {
            let prims = soup(n, seed, palette, flat, far, repeats);
            let (got, want) = (build_bvh(&prims), reference_bvh(&prims));
            prop_assert!(
                tree_text(&got) == tree_text(&want),
                "{n} primitives, seed {seed}, {palette:?}, flat {flat}, far {far}, \
                 repeats {repeats}: the trees differ"
            );
        }
    }
}
