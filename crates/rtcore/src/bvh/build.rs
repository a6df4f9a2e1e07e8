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
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    let Some(mut info) = records(prims) else {
        return empty_bvh();
    };
    let scan_every_node = info.iter().any(PrimInfo::has_negative_zero);
    let mut tags = vec![0; info.len()];
    let root = Boxes::scan(&info);
    let nodes = Vec::with_capacity(prims.len() * 2);
    let mut builder = Builder::new(nodes, &mut info, &mut tags, 0, scan_every_node);
    builder.build(0..prims.len(), 0, root);
    let nodes = builder.nodes;
    Bvh::new(nodes, info.iter().map(|p| p.index).collect())
}

/// The lent build splits a subtree further while it holds more than this
/// share of the primitives.
const FRONTIER: usize = 16;

/// [`build_bvh`] with a lent thread (`crate::lend`): the same tree, bit for
/// bit.
///
/// Both threads take subtrees from one queue, largest first. A subtree over
/// more than 1/[`FRONTIER`] of the primitives is split, one node, and its
/// two children are queued; a smaller one is built whole by the serial
/// builder. Each subtree owns its own slice of the record array, so no two
/// threads touch the same record. The tree is then stitched in depth-first
/// order, each whole subtree's node links shifted by where it lands. A
/// node's split reads only its own primitives' records, its depth and its
/// boxes, which are the same whichever thread splits it and in whatever
/// order, so every node is the serial builder's.
pub(crate) fn build_bvh_lent(
    prims: &[Primitive],
    lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
) -> Bvh {
    let Some(mut info) = records(prims) else {
        return empty_bvh();
    };
    let scan_every_node = info.iter().any(PrimInfo::has_negative_zero);
    let mut tags = vec![0; info.len()];
    let grain = prims.len() / FRONTIER;
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
    // pieces resident too.
    let mut queue = Vec::with_capacity(4 * FRONTIER);
    queue.push(root);
    let pool = Pool {
        queue: Mutex::new((queue, 1)),
        pending: AtomicUsize::new(1),
        built: Mutex::new(Vec::with_capacity(8 * FRONTIER)),
        buffers: Mutex::new(
            (0..2)
                .map(|_| Some(Vec::with_capacity(prims.len() * 2)))
                .collect(),
        ),
    };
    let work = || {
        let (at, mut buffer) = {
            let buffers = &mut *lock(&pool.buffers);
            match buffers.iter().position(Option::is_some) {
                Some(at) => (at, buffers[at].take().unwrap_or_default()),
                None => {
                    buffers.push(None);
                    (buffers.len() - 1, Vec::new())
                }
            }
        };
        while pool.pending.load(Ordering::Acquire) > 0 {
            let task = {
                let (queue, _) = &mut *lock(&pool.queue);
                let largest = (0..queue.len()).max_by_key(|&i| queue[i].records.len());
                largest.map(|i| queue.swap_remove(i))
            };
            match task {
                Some(task) => {
                    // Counted out even if it panics, so the other thread
                    // stops and the panic reaches the caller.
                    let _done = CountOut(&pool.pending);
                    let built = task.run(grain, scan_every_node, &pool, (at, &mut buffer));
                    lock(&pool.built).push(built);
                }
                // The other thread is splitting what is left.
                None => std::thread::yield_now(),
            }
        }
        lock(&pool.buffers)[at] = Some(buffer);
    };
    lend(
        &mut |start| {
            start();
            work();
        },
        &work,
    );
    let mut built: Vec<Option<Built>> = Vec::new();
    for (id, subtree) in pool
        .built
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        if built.len() <= id {
            built.resize_with(id + 1, || None);
        }
        built[id] = Some(subtree);
    }
    let buffers: Vec<Vec<FlatNode>> = (pool.buffers.into_inner())
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    // The records go before the copy, whose array can take their place.
    let order = info.iter().map(|p| p.index).collect();
    drop((info, tags));
    let count = built.iter().flatten().map(Built::node_count).sum();
    let mut nodes = Vec::with_capacity(count);
    stitch(&mut built, &buffers, 0, &mut nodes);
    Bvh::new(nodes, order)
}

/// Counts a subtree out of [`Pool::pending`] when dropped.
struct CountOut<'p>(&'p AtomicUsize);

impl Drop for CountOut<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The lock of the lent build's shared state, whatever a panic left in it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tree over no primitive: one empty leaf.
fn empty_bvh() -> Bvh {
    Bvh::new(vec![FlatNode::leaf(Aabb::empty(), 0, 0)], Vec::new())
}

/// Each primitive's record, in scene order; `None` for no primitive.
fn records(prims: &[Primitive]) -> Option<Vec<PrimInfo>> {
    (!prims.is_empty()).then(|| {
        prims
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
            .collect()
    })
}

/// What the lent build's threads share.
struct Pool<'a> {
    /// The subtrees to lay out, and the next free subtree id.
    queue: Mutex<(Vec<Task<'a>>, usize)>,
    /// Subtrees queued or being laid out: the build is done at zero. A
    /// split adds its children before it counts itself out.
    pending: AtomicUsize,
    /// Each laid-out subtree, by id, in the order they were finished.
    built: Mutex<Vec<(usize, Built)>>,
    /// A node array per thread, which it builds its whole subtrees into one
    /// after another; taken while the thread runs.
    buffers: Mutex<Vec<Option<Vec<FlatNode>>>>,
}

/// A subtree the lent build has yet to lay out: the serial builder's call
/// over primitives `offset..offset + records.len()` at `depth`, whose
/// boxes are `boxes`.
struct Task<'a> {
    id: usize,
    offset: usize,
    depth: usize,
    boxes: Boxes,
    /// The subtree's own slice of the record array, and of the tags.
    records: &'a mut [PrimInfo],
    tags: &'a mut [u8],
}

/// A subtree as the lent build laid it out.
enum Built {
    /// Built whole by the serial builder, as nodes `start..start + len` of
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

impl<'a> Task<'a> {
    /// Builds the subtree whole at the end of node array `buffer` (with its
    /// index) if it holds at most `grain` primitives, or else splits its
    /// root and queues the two children in `pool`.
    fn run(
        self,
        grain: usize,
        scan_every_node: bool,
        pool: &Pool<'a>,
        (at, buffer): (usize, &mut Vec<FlatNode>),
    ) -> (usize, Built) {
        let Task {
            id,
            offset,
            depth,
            boxes,
            records,
            tags,
        } = self;
        let len = records.len();
        if len <= grain {
            let start = buffer.len();
            let nodes = std::mem::take(buffer);
            let mut builder = Builder::new(nodes, records, tags, offset, scan_every_node);
            builder.build(0..len, depth, boxes);
            *buffer = builder.nodes;
            let whole = Built::Whole {
                buffer: at,
                start,
                len: buffer.len() - start,
            };
            return (id, whole);
        }
        let mut builder = Builder::new(Vec::new(), records, tags, offset, scan_every_node);
        let bounds = boxes.bounds.aabb();
        let Split::Interior {
            axis,
            mid,
            left,
            right,
        } = builder.split(0..len, depth, &boxes)
        else {
            let start = buffer.len();
            buffer.push(builder.leaf(bounds, &(0..len)));
            let leaf = Built::Whole {
                buffer: at,
                start,
                len: 1,
            };
            return (id, leaf);
        };
        let Builder { info, tags, .. } = builder;
        let (left_records, right_records) = info.split_at_mut(mid);
        let (left_tags, right_tags) = tags.split_at_mut(mid);
        let (queue, next) = &mut *lock(&pool.queue);
        let children = [*next, *next + 1];
        *next += 2;
        pool.pending.fetch_add(2, Ordering::AcqRel);
        queue.push(Task {
            id: children[0],
            offset,
            depth: depth + 1,
            boxes: left,
            records: left_records,
            tags: left_tags,
        });
        queue.push(Task {
            id: children[1],
            offset: offset + mid,
            depth: depth + 1,
            boxes: right,
            records: right_records,
            tags: right_tags,
        });
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
/// index.
fn stitch(
    built: &mut [Option<Built>],
    buffers: &[Vec<FlatNode>],
    id: usize,
    nodes: &mut Vec<FlatNode>,
) -> u32 {
    let index = nodes.len() as u32;
    match built[id].take() {
        Some(Built::Whole { buffer, start, len }) => {
            let subtree = &buffers[buffer][start..start + len];
            nodes.extend(subtree.iter().map(|node| node.shifted(index)));
        }
        Some(Built::Split {
            bounds,
            axis,
            children: [left, right],
        }) => {
            nodes.push(FlatNode::leaf(bounds, 0, 0));
            stitch(built, buffers, left, nodes);
            let right = stitch(built, buffers, right, nodes);
            nodes[index as usize] = FlatNode::interior(bounds, right, axis);
        }
        None => {}
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

/// Builds subtrees over one slice of the record array.
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
    /// A builder that lays out its nodes at the end of `nodes`.
    fn new(
        nodes: Vec<FlatNode>,
        info: &'a mut [PrimInfo],
        tags: &'a mut [u8],
        offset: usize,
        scan_every_node: bool,
    ) -> Self {
        Builder {
            base: nodes.len(),
            nodes,
            info,
            tags,
            offset,
            scan_every_node,
        }
    }

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
    use crate::lend::tests::lenders;
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

    #[test]
    fn the_lent_build_lays_out_the_serial_tree_on_the_fixtures() {
        // The depth cap, the median fallback at the root and below it, a
        // flat scene, and frames smaller than the frontier.
        let fixtures = [axis_star(), random_tris(3000, 5)]
            .into_iter()
            .chain([5, 16, 79, 300].map(overflowing_clusters))
            .chain((0..40).map(|n| random_tris(n, 6)));
        for prims in fixtures {
            let want = tree_text(&build_bvh(&prims));
            for (name, lend) in lenders() {
                let got = tree_text(&build_bvh_lent(&prims, lend));
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

        /// The lent build lays out exactly the serial builder's tree, however
        /// its lender runs the helper.
        #[test]
        fn the_lent_build_matches_the_serial_build(
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
            lender in 0usize..4,
        ) {
            let prims = soup(n, seed, palette, flat, far, repeats);
            let (name, lend) = lenders()[lender];
            prop_assert!(
                tree_text(&build_bvh_lent(&prims, lend)) == tree_text(&build_bvh(&prims)),
                "{n} primitives, seed {seed}, {palette:?}, flat {flat}, far {far}, \
                 repeats {repeats}, {name}: the trees differ"
            );
        }
    }
}
