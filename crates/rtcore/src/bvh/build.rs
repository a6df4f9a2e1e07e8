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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::geom::Primitive;
use crate::lend::{lock, share};
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

/// A subtree is split further while it holds more than this share of the
/// primitives.
const FRONTIER: usize = 16;

/// Builds a BVH over `prims` using binned SAH with a median-split fallback,
/// on the calling thread and, when `lend` starts one, a lent thread
/// (`crate::lend`): the same tree, bit for bit, whichever.
///
/// Returns an empty (single empty-leaf) BVH for an empty primitive list so
/// that traversal of empty scenes is well defined.
///
/// The subtrees are [`crate::lend::share`]'s tasks, largest first. A
/// subtree over more than 1/[`FRONTIER`] of the primitives is split, one
/// node, and its two children are queued; a smaller one is built whole by
/// [`Builder::build`]'s recursion. Each subtree owns its own slice of the
/// record array, so no two threads touch the same record. The tree is then
/// stitched in depth-first order, each whole subtree's node links shifted by
/// where it lands. A node's split reads only its own primitives' records,
/// its depth and its boxes, which are the same whichever thread splits it
/// and in whatever order, so every node is where one recursion from the
/// root would lay it out.
pub(crate) fn build_bvh(
    prims: &[Primitive],
    lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
) -> Bvh {
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
    let scan_every_node = info.iter().any(PrimInfo::has_negative_zero);
    let mut tags = vec![0; info.len()];
    let root = Task {
        id: 0,
        offset: 0,
        depth: 0,
        boxes: Boxes::scan(&info),
        records: &mut info,
        tags: &mut tags,
    };
    // What the threads fill is allocated here, on the calling thread, and
    // freed in one piece: what a lent thread allocates and frees stays
    // resident with its allocator arena, which the rest of a run barely
    // uses, and a node array per subtree left the main arena's freed
    // pieces resident too. Two threads fill at most two node arrays.
    let build = Build {
        grain: prims.len() / FRONTIER,
        scan_every_node,
        next_id: AtomicUsize::new(1),
        built: Mutex::new(Vec::with_capacity(8 * FRONTIER)),
        buffers: [(); 2].map(|()| Mutex::new(Vec::with_capacity(prims.len() * 2))),
    };
    share(
        vec![root],
        |task| task.records.len(),
        |task, queue| {
            let built = build.run(task, queue);
            lock(&build.built).push(built);
        },
        lend,
    );
    let mut built = build
        .built
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // Every id below `next_id` was laid out once: sorted, an id indexes it.
    built.sort_unstable_by_key(|&(id, _)| id);
    let buffers = build
        .buffers
        .map(|b| b.into_inner().unwrap_or_else(PoisonError::into_inner));
    // The records go before the copy, whose array can take their place.
    let order = info.iter().map(|p| p.index).collect();
    drop((info, tags));
    let count = built.iter().map(|(_, subtree)| subtree.node_count()).sum();
    let mut nodes = Vec::with_capacity(count);
    stitch(&built, &buffers, 0, &mut nodes);
    Bvh::new(nodes, order)
}

/// What the build's threads share beside the subtree queue.
struct Build {
    /// Subtrees over at most this many primitives are built whole.
    grain: usize,
    scan_every_node: bool,
    /// The next free subtree id.
    next_id: AtomicUsize,
    /// Each laid-out subtree, by id, in the order they were finished.
    built: Mutex<Vec<(usize, Built)>>,
    /// The node arrays whole subtrees are built into, one after another,
    /// each by one thread at a time.
    buffers: [Mutex<Vec<FlatNode>>; 2],
}

/// A subtree the build has yet to lay out: [`Builder::build`]'s call over
/// primitives `offset..offset + records.len()` at `depth`, whose boxes are
/// `boxes`.
struct Task<'a> {
    id: usize,
    offset: usize,
    depth: usize,
    boxes: Boxes,
    /// The subtree's own slice of the record array, and of the tags.
    records: &'a mut [PrimInfo],
    tags: &'a mut [u8],
}

/// A subtree as the build laid it out.
#[derive(Clone, Copy)]
enum Built {
    /// Built whole by [`Builder::build`], as nodes `start..start + len` of
    /// node array `buffer`: links count from its first node.
    Whole {
        buffer: usize,
        start: usize,
        len: usize,
    },
    /// Split: an interior node over the subtrees `children` (ids).
    Split {
        bounds: Aabb,
        axis: u8,
        children: [usize; 2],
    },
}

impl Built {
    /// The nodes it lays out itself.
    fn node_count(&self) -> usize {
        match self {
            Built::Whole { len, .. } => *len,
            Built::Split { .. } => 1,
        }
    }
}

impl Build {
    /// Lays out `task`: whole, at the end of whichever node array the other
    /// thread is not filling, if it holds at most `grain` primitives or is
    /// a leaf, or else as its split root, queueing the two children.
    fn run<'a>(&self, task: Task<'a>, queue: &dyn Fn(Task<'a>)) -> (usize, Built) {
        let Task {
            id,
            offset,
            depth,
            boxes,
            records,
            tags,
        } = task;
        let len = records.len();
        let mut builder = Builder {
            nodes: Vec::new(),
            base: 0,
            info: records,
            tags,
            offset,
            scan_every_node: self.scan_every_node,
        };
        // A leaf's split returns before it reorders anything.
        let split = if len > self.grain {
            builder.split(0..len, depth, &boxes)
        } else {
            Split::Leaf
        };
        let Split::Interior {
            axis,
            mid,
            left,
            right,
        } = split
        else {
            let (buffer, mut nodes) = match self.buffers[0].try_lock() {
                Ok(nodes) => (0, nodes),
                Err(_) => (1, lock(&self.buffers[1])),
            };
            let start = nodes.len();
            let mut builder = Builder {
                base: start,
                nodes: std::mem::take(&mut *nodes),
                ..builder
            };
            builder.build(0..len, depth, boxes);
            *nodes = builder.nodes;
            let len = nodes.len() - start;
            return (id, Built::Whole { buffer, start, len });
        };
        let Builder { info, tags, .. } = builder;
        let (left_records, right_records) = info.split_at_mut(mid);
        let (left_tags, right_tags) = tags.split_at_mut(mid);
        let first = self.next_id.fetch_add(2, Ordering::Relaxed);
        queue(Task {
            id: first,
            offset,
            depth: depth + 1,
            boxes: left,
            records: left_records,
            tags: left_tags,
        });
        queue(Task {
            id: first + 1,
            offset: offset + mid,
            depth: depth + 1,
            boxes: right,
            records: right_records,
            tags: right_tags,
        });
        let bounds = boxes.bounds.aabb();
        let children = [first, first + 1];
        (
            id,
            Built::Split {
                bounds,
                axis,
                children,
            },
        )
    }
}

/// Lays out subtree `id` and its descendants depth-first at the end of
/// `nodes`, taking whole subtrees from `buffers`; returns its root's node
/// index. `built` holds every subtree with its id, in id order.
fn stitch(
    built: &[(usize, Built)],
    buffers: &[Vec<FlatNode>],
    id: usize,
    nodes: &mut Vec<FlatNode>,
) -> u32 {
    let index = nodes.len() as u32;
    match built[id].1 {
        Built::Whole { buffer, start, len } => {
            let subtree = &buffers[buffer][start..start + len];
            nodes.extend(subtree.iter().map(|node| node.shifted(index)));
        }
        Built::Split {
            bounds,
            axis,
            children: [left, right],
        } => {
            nodes.push(FlatNode::leaf(bounds, 0, 0));
            stitch(built, buffers, left, nodes);
            let right = stitch(built, buffers, right, nodes);
            nodes[index as usize] = FlatNode::interior(bounds, right, axis);
        }
    }
    index
}

/// How a node splits.
enum Split {
    /// It is a leaf.
    Leaf,
    /// An interior node on `axis`: the primitives before `mid`, whose boxes
    /// are `left`, go left, the rest, whose boxes are `right`, go right.
    Interior {
        axis: u8,
        mid: usize,
        left: Boxes,
        right: Boxes,
    },
}

/// Splits a task's root node, or builds its whole subtree, over one slice of
/// the record array.
struct Builder<'a> {
    /// The tree so far, depth-first from `base`: a parent's left child is at
    /// `parent + 1`. Node links count from `base`.
    nodes: Vec<FlatNode>,
    base: usize,
    /// The records, `offset` into the whole array: ranges index this slice,
    /// leaves store positions in the whole array.
    info: &'a mut [PrimInfo],
    /// Each primitive's SAH bin at the node being split, swapped alongside
    /// `info`.
    tags: &'a mut [u8],
    offset: usize,
    /// Some primitive has a negative-zero coordinate, so a union of bins
    /// may differ from a scan in the sign of a zero: scan every child.
    scan_every_node: bool,
}

impl<'a> Builder<'a> {
    /// Recursively builds the subtree over primitives `range`, whose boxes
    /// are `boxes`. Returns the index of the created node.
    fn build(&mut self, range: Range<usize>, depth: usize, boxes: Boxes) -> u32 {
        let node_index = (self.nodes.len() - self.base) as u32;
        let bounds = boxes.bounds.aabb();
        match self.split(range.clone(), depth, &boxes) {
            Split::Leaf => {
                let leaf = self.leaf(bounds, &range);
                self.nodes.push(leaf);
            }
            Split::Interior {
                axis,
                mid,
                left,
                right,
            } => {
                // Placeholder; patched after children are built.
                self.nodes.push(FlatNode::leaf(bounds, 0, 0));
                self.build(range.start..mid, depth + 1, left);
                let right = self.build(mid..range.end, depth + 1, right);
                self.nodes[self.base + node_index as usize] =
                    FlatNode::interior(bounds, right, axis);
            }
        }
        node_index
    }

    /// The leaf over primitives `range`.
    fn leaf(&self, bounds: Aabb, range: &Range<usize>) -> FlatNode {
        FlatNode::leaf(
            bounds,
            (self.offset + range.start) as u32,
            range.len() as u32,
        )
    }

    /// Splits the node over primitives `range` at `depth`, whose boxes are
    /// `boxes`, partitioning the range in place.
    fn split(&mut self, range: Range<usize>, depth: usize, boxes: &Boxes) -> Split {
        // A branch that reaches the traversal stack's depth limit (only a
        // pathologically skewed split sequence does) ends in an oversized leaf.
        let count = range.len();
        if count <= MAX_LEAF_PRIMS || depth == MAX_DEPTH {
            return Split::Leaf;
        }

        let centroids = boxes.centroids.aabb();
        let extent = centroids.extent();
        let axis = extent.largest_axis();
        if extent[axis] < 1e-8 {
            // Degenerate spread: all centroids coincide. Make a leaf.
            return Split::Leaf;
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
        Split::Interior {
            axis: axis as u8,
            mid,
            left,
            right,
        }
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
    use crate::lend::tests::{lenders, Lender};
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
        let bvh = Bvh::build(&[]);
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
        let bvh = Bvh::build(&prims);
        assert_eq!(bvh.node_count(), 1);
        assert_eq!(bvh.primitive_order(), &[0]);
    }

    #[test]
    fn order_is_a_permutation() {
        let prims = random_tris(500, 1);
        let bvh = Bvh::build(&prims);
        let mut order: Vec<u32> = bvh.primitive_order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn leaves_respect_max_size() {
        let prims = random_tris(300, 2);
        let bvh = Bvh::build(&prims);
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
        let bvh = Bvh::build(&prims);
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
        let bvh = Bvh::build(&prims);
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
        let bvh = Bvh::build(&prims);
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

    /// The depth cap, the median fallback at the root and below it (the
    /// median splits of every small cluster pair: the unstable sort orders
    /// their many tied centroids by its element type's strategy), a flat
    /// scene, and frames smaller than the frontier.
    fn fixtures() -> impl Iterator<Item = Vec<Primitive>> {
        [axis_star(), random_tris(3000, 5)]
            .into_iter()
            .chain((5..80).chain([300]).map(overflowing_clusters))
            .chain((0..40).map(|n| random_tris(n, 6)))
    }

    /// The lenders that start the helper; the "never" lender is `Bvh::build`.
    fn helped_lenders() -> impl Iterator<Item = (&'static str, Lender)> {
        lenders().into_iter().filter(|(name, _)| *name != "never")
    }

    #[test]
    fn fixtures_match_the_reference_builder() {
        for prims in fixtures() {
            assert_eq!(
                tree_text(&Bvh::build(&prims)),
                tree_text(&reference_bvh(&prims)),
                "{} primitives",
                prims.len()
            );
        }
    }

    #[test]
    fn the_lent_build_lays_out_the_serial_tree_on_the_fixtures() {
        for prims in fixtures() {
            let want = tree_text(&Bvh::build(&prims));
            for (name, lend) in helped_lenders() {
                let got = tree_text(&build_bvh(&prims, lend));
                assert!(got == want, "{} primitives, {name}", prims.len());
            }
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

    /// A soup's size, seed, palette and `flat`, `far`, `repeats` switches.
    type SoupArgs = (usize, u64, Palette, bool, bool, bool);

    fn soup_args() -> impl Strategy<Value = SoupArgs> {
        (
            prop_oneof![0usize..64, 0usize..3000],
            any::<u64>(),
            prop_oneof![
                Just(Palette::Range),
                Just(Palette::Grid),
                Just(Palette::SignedGrid),
            ],
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The builder lays out exactly the tree of the reference builder,
        /// which scans every node's primitives: same boxes to the bit, same
        /// links, axes and primitive order.
        #[test]
        fn builder_matches_the_reference(args in soup_args()) {
            let (n, seed, palette, flat, far, repeats) = args;
            let prims = soup(n, seed, palette, flat, far, repeats);
            prop_assert!(
                tree_text(&Bvh::build(&prims)) == tree_text(&reference_bvh(&prims)),
                "{args:?}: the trees differ"
            );
        }

        /// The build lays out the one-thread tree however its lender runs
        /// the helper.
        #[test]
        fn the_lent_build_matches_the_serial_build(args in soup_args()) {
            let (n, seed, palette, flat, far, repeats) = args;
            let prims = soup(n, seed, palette, flat, far, repeats);
            let want = tree_text(&Bvh::build(&prims));
            for (name, lend) in helped_lenders() {
                prop_assert!(
                    tree_text(&build_bvh(&prims, lend)) == want,
                    "{args:?}, {name}: the trees differ"
                );
            }
        }
    }
}
