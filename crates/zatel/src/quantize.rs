//! Colour quantization of the heatmap with K-means clustering
//! (paper step 2, Fig. 4): merges similar colours into distinct groups to
//! eliminate noise.
//!
//! [`kmeans`] works per distinct colour rather than per pixel, which gives
//! bit-identical clusters (and so unchanged fingerprints) at a fraction of
//! the cost.

use rtcore::image::Image;
use rtcore::math::{Pcg, Vec3};

use crate::heatmap::{coolness_of, heat_color, Heatmap};

/// Maximum K-means refinement iterations.
const MAX_ITERS: usize = 32;

/// A heatmap whose colours have been merged into `k` quantized clusters.
///
/// Each pixel carries a cluster id; each cluster has a centroid colour and
/// a *coolness* value `c_i ∈ [0, 1]` derived from the centroid's shifted
/// hue (0 = hot, 1 = cold), exactly the quantity Eqs. (1)–(3) consume.
///
/// # Examples
///
/// ```
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use zatel::heatmap::Heatmap;
/// use zatel::quantize::QuantizedHeatmap;
///
/// let scene = SceneId::Sprng.build(1);
/// let cfg = TraceConfig { samples_per_pixel: 1, max_bounces: 2, seed: 1 };
/// let hm = Heatmap::profile(&scene, 16, 16, &cfg);
/// let q = QuantizedHeatmap::quantize(&hm, 4, 7);
/// assert!(q.cluster_count() <= 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedHeatmap {
    width: u32,
    height: u32,
    /// Per-pixel cluster index, row-major.
    clusters: Vec<u16>,
    /// Centroid colour per cluster.
    centroids: Vec<Vec3>,
    /// Coolness `c_i` per cluster.
    coolness: Vec<f32>,
}

impl QuantizedHeatmap {
    /// Quantizes `heatmap` into at most `k` colours with seeded K-means.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn quantize(heatmap: &Heatmap, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one cluster");
        let colors: Vec<Vec3> = heatmap.values().iter().map(|&t| heat_color(t)).collect();
        let (clusters, centroids) = kmeans(&colors, k, seed);
        let coolness = centroids.iter().map(|&c| coolness_of(c)).collect();
        QuantizedHeatmap {
            width: heatmap.width(),
            height: heatmap.height(),
            clusters,
            centroids,
            coolness,
        }
    }

    /// Content fingerprint over dimensions, assignments, centroid and
    /// coolness bit patterns: what golden tests pin a quantization by.
    pub fn fingerprint(&self) -> u64 {
        let mut h = rtcore::fingerprint::Fnv64::new();
        h.write_str("zatel-quantized-v1");
        h.write_u32(self.width).write_u32(self.height);
        for &c in &self.clusters {
            h.write_u32(c as u32);
        }
        for c in &self.centroids {
            h.write_f32(c.x).write_f32(c.y).write_f32(c.z);
        }
        for &c in &self.coolness {
            h.write_f32(c);
        }
        h.finish()
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of distinct clusters actually produced.
    pub fn cluster_count(&self) -> usize {
        self.centroids.len()
    }

    /// Cluster id of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cluster(&self, x: u32, y: u32) -> u16 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.clusters[(y * self.width + x) as usize]
    }

    /// Quantized colour of pixel `(x, y)`.
    pub fn color(&self, x: u32, y: u32) -> Vec3 {
        self.centroids[self.cluster(x, y) as usize]
    }

    /// Coolness `c_i` of pixel `(x, y)` (its cluster's coolness).
    pub fn coolness(&self, x: u32, y: u32) -> f32 {
        self.coolness[self.cluster(x, y) as usize]
    }

    /// Coolness of cluster `id`.
    pub fn cluster_coolness(&self, id: u16) -> f32 {
        self.coolness[id as usize]
    }

    /// Centroid colour of cluster `id`.
    pub fn cluster_color(&self, id: u16) -> Vec3 {
        self.centroids[id as usize]
    }

    /// Renders the quantized map to an image (the paper's Fig. 4 right).
    pub fn to_image(&self) -> Image {
        let mut img = Image::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let c = self.color(x, y);
                img.set(x, y, c.hadamard(c));
            }
        }
        img
    }
}

/// Plain K-means over RGB colours with deterministic spread-out
/// initialization (greedy farthest-point, a deterministic k-means++).
/// Returns per-point cluster assignments and the surviving centroids.
///
/// A heatmap of `n` pixels holds far fewer distinct colours `d` (tens to a
/// few thousand against 4–16 k pixels), and two points with the same bit
/// pattern get the same distances, the same farthest-point score and the
/// same assignment. So the points are grouped by bit pattern once, and each
/// iteration computes `d × k` distances plus one pass over the points that
/// accumulates the centroid sums in the points' own order. The result is
/// bit-identical to assigning every point, which the tests keep as the
/// oracle.
pub fn kmeans(points: &[Vec3], k: usize, seed: u64) -> (Vec<u16>, Vec<Vec3>) {
    assert!(k > 0, "need at least one cluster");
    if points.is_empty() {
        return (Vec::new(), vec![Vec3::ZERO]);
    }
    let k = k.min(points.len());
    let mut rng = Pcg::new(seed);

    // Distinct colours, the colour of each point, the last point of each
    // colour. Sorting `(bits, index)` lists a colour's points in index
    // order, and bit-pattern order measured faster in the loops below than
    // order of first appearance: neighbouring colours mostly share a
    // nearest centroid.
    let key = |p: &Vec3| {
        (u128::from(p.x.to_bits()) << 64)
            | (u128::from(p.y.to_bits()) << 32)
            | u128::from(p.z.to_bits())
    };
    let mut order: Vec<(u128, usize)> = points.iter().map(key).zip(0..).collect();
    order.sort_unstable();
    let (mut colors, mut last, mut color_of) = (Vec::new(), Vec::new(), vec![0; points.len()]);
    for (r, &(bits, i)) in order.iter().enumerate() {
        if r == 0 || order[r - 1].0 != bits {
            colors.push(points[i]);
            last.push(i);
        }
        color_of[i] = colors.len() - 1;
        last[colors.len() - 1] = i;
    }

    // Farthest-point initialization from a random start. The distance to
    // the nearest centroid is kept as a running minimum per colour, and
    // ties go to the colour whose last point comes last, as `max_by` over
    // the points would pick it.
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.next_below(points.len())]);
    let mut nearest = vec![f32::INFINITY; colors.len()];
    while centroids.len() < k {
        let newest = centroids[centroids.len() - 1];
        for (d, c) in nearest.iter_mut().zip(&colors) {
            *d = d.min((*c - newest).length_squared());
        }
        #[expect(
            clippy::expect_used,
            reason = "one point per heatmap pixel and the heatmap is non-empty by construction"
        )]
        let best = (0..colors.len())
            .max_by(|&a, &b| {
                nearest[a]
                    .total_cmp(&nearest[b])
                    .then(last[a].cmp(&last[b]))
            })
            .expect("non-empty points");
        centroids.push(colors[best]);
    }

    let mut color_assignment = vec![0u16; colors.len()];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (a, p) in color_assignment.iter_mut().zip(&colors) {
            #[expect(
                clippy::expect_used,
                reason = "kmeans asserts k > 0 on entry, so centroids is never empty"
            )]
            let (best, _) = centroids
                .iter()
                .enumerate()
                .map(|(j, c)| (j, (*p - *c).length_squared()))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("k >= 1");
            if *a != best as u16 {
                *a = best as u16;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![Vec3::ZERO; centroids.len()];
        let mut counts = vec![0u32; centroids.len()];
        for (p, &c) in points.iter().zip(&color_of) {
            let j = color_assignment[c] as usize;
            sums[j] += *p;
            counts[j] += 1;
        }
        for (j, c) in centroids.iter_mut().enumerate() {
            if counts[j] > 0 {
                *c = sums[j] / counts[j] as f32;
            }
        }
    }

    // Drop empty clusters and compact ids.
    let mut assignment: Vec<u16> = color_of.iter().map(|&c| color_assignment[c]).collect();
    let mut used: Vec<bool> = vec![false; centroids.len()];
    for &a in &assignment {
        used[a as usize] = true;
    }
    let mut remap = vec![0u16; centroids.len()];
    let mut kept = Vec::new();
    for (j, &u) in used.iter().enumerate() {
        if u {
            remap[j] = kept.len() as u16;
            kept.push(centroids[j]);
        }
    }
    for a in &mut assignment {
        *a = remap[*a as usize];
    }
    (assignment, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtcore::scenes::SceneId;
    use rtcore::tracer::TraceConfig;

    /// K-means as it was before it grouped points by colour, kept verbatim
    /// as the oracle: every point assigned in every iteration.
    fn kmeans_reference(points: &[Vec3], k: usize, seed: u64) -> (Vec<u16>, Vec<Vec3>) {
        assert!(k > 0, "need at least one cluster");
        if points.is_empty() {
            return (Vec::new(), vec![Vec3::ZERO]);
        }
        let k = k.min(points.len());
        let mut rng = Pcg::new(seed);

        // Farthest-point initialization from a random start.
        let mut centroids = Vec::with_capacity(k);
        centroids.push(points[rng.next_below(points.len())]);
        while centroids.len() < k {
            let (best, _) = points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let d = centroids
                        .iter()
                        .map(|c| (*p - *c).length_squared())
                        .fold(f32::INFINITY, f32::min);
                    (i, d)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty points");
            centroids.push(points[best]);
        }

        let mut assignment = vec![0u16; points.len()];
        for _ in 0..MAX_ITERS {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let (best, _) = centroids
                    .iter()
                    .enumerate()
                    .map(|(j, c)| (j, (*p - *c).length_squared()))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("k >= 1");
                if assignment[i] != best as u16 {
                    assignment[i] = best as u16;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let mut sums = vec![Vec3::ZERO; centroids.len()];
            let mut counts = vec![0u32; centroids.len()];
            for (i, p) in points.iter().enumerate() {
                sums[assignment[i] as usize] += *p;
                counts[assignment[i] as usize] += 1;
            }
            for (j, c) in centroids.iter_mut().enumerate() {
                if counts[j] > 0 {
                    *c = sums[j] / counts[j] as f32;
                }
            }
        }

        // Drop empty clusters and compact ids.
        let mut used: Vec<bool> = vec![false; centroids.len()];
        for &a in &assignment {
            used[a as usize] = true;
        }
        let mut remap = vec![0u16; centroids.len()];
        let mut kept = Vec::new();
        for (j, &u) in used.iter().enumerate() {
            if u {
                remap[j] = kept.len() as u16;
                kept.push(centroids[j]);
            }
        }
        for a in &mut assignment {
            *a = remap[*a as usize];
        }
        (assignment, kept)
    }

    /// Centroids as bit patterns, so `-0.0` and `0.0` count as different.
    fn bits(centroids: &[Vec3]) -> Vec<[u32; 3]> {
        centroids
            .iter()
            .map(|c| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()])
            .collect()
    }

    /// A colour on a coarse grid that includes both zeros: drawn into a
    /// small palette it gives heavy duplication and exact distance ties.
    fn grid_color() -> impl Strategy<Value = Vec3> {
        let axis = || (0usize..5).prop_map(|i| [-0.0f32, 0.0, 0.25, 0.5, 1.0][i]);
        (axis(), axis(), axis()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Grouping points by colour changes neither the assignments nor
        /// a single centroid bit: over small palettes (most points share a
        /// colour), exact distance ties, `k` at or above the number of
        /// distinct colours (duplicate centroids whose clusters empty out)
        /// and heat-gradient palettes like the heatmap's own.
        #[test]
        fn kmeans_matches_the_per_point_reference(
            palette in prop::collection::vec(
                prop_oneof![grid_color(), (0.0f32..1.0).prop_map(heat_color)],
                1..12,
            ),
            picks in prop::collection::vec(0usize..1000, 1..300),
            k in 1usize..16,
            seed in any::<u64>(),
        ) {
            let points: Vec<Vec3> = picks.iter().map(|&i| palette[i % palette.len()]).collect();
            let (assign, cents) = kmeans(&points, k, seed);
            let (want_assign, want_cents) = kmeans_reference(&points, k, seed);
            prop_assert_eq!(assign, want_assign);
            prop_assert_eq!(bits(&cents), bits(&want_cents));
        }
    }

    #[test]
    fn kmeans_with_more_clusters_than_colours_keeps_one_per_colour() {
        let pts: Vec<Vec3> = (0..40).map(|i| Vec3::splat((i % 3) as f32)).collect();
        let (assign, cents) = kmeans(&pts, 8, 11);
        assert_eq!(cents.len(), 3, "duplicate centroids empty out");
        assert_eq!((assign.clone(), cents), kmeans_reference(&pts, 8, 11));
        assert!(pts
            .iter()
            .zip(&assign)
            .all(|(p, &a)| a == assign[p.x as usize]));
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut pts = Vec::new();
        for i in 0..50 {
            let j = i as f32 * 0.001;
            pts.push(Vec3::new(0.0 + j, 0.0, 0.0));
            pts.push(Vec3::new(1.0 - j, 1.0, 1.0));
        }
        let (assign, cents) = kmeans(&pts, 2, 1);
        assert_eq!(cents.len(), 2);
        // All even-index points share a cluster, odd-index the other.
        let a0 = assign[0];
        assert!(assign.iter().step_by(2).all(|&a| a == a0));
        assert!(assign.iter().skip(1).step_by(2).all(|&a| a != a0));
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts: Vec<Vec3> = (0..100).map(|i| heat_color(i as f32 / 99.0)).collect();
        let (a1, c1) = kmeans(&pts, 5, 42);
        let (a2, c2) = kmeans(&pts, 5, 42);
        assert_eq!(a1, a2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn kmeans_caps_k_at_point_count() {
        let pts = vec![Vec3::ZERO, Vec3::ONE];
        let (assign, cents) = kmeans(&pts, 10, 3);
        assert!(cents.len() <= 2);
        assert_eq!(assign.len(), 2);
    }

    #[test]
    fn quantized_map_preserves_warm_cold_ordering() {
        // Synthetic heatmap: left half cold (0.05), right half hot (0.95).
        let mut costs = rtcore::tracer::CostMap::new(16, 4);
        for y in 0..4 {
            for x in 0..16 {
                costs.set(x, y, if x < 8 { 5 } else { 95 });
            }
        }
        let hm = Heatmap::from_costs(&costs);
        let q = QuantizedHeatmap::quantize(&hm, 4, 9);
        let cold = q.coolness(0, 0);
        let hot = q.coolness(15, 0);
        assert!(
            cold > hot,
            "cold side must have higher coolness ({cold} vs {hot})"
        );
        assert_ne!(q.cluster(0, 0), q.cluster(15, 0));
    }

    #[test]
    fn quantization_reduces_distinct_colors() {
        let scene = SceneId::Wknd.build(1);
        let cfg = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 1,
        };
        let hm = Heatmap::profile(&scene, 24, 24, &cfg);
        let q = QuantizedHeatmap::quantize(&hm, 6, 5);
        assert!(q.cluster_count() >= 2, "WKND has warm and cold regions");
        assert!(q.cluster_count() <= 6);
        // Every pixel's cluster id is valid.
        for y in 0..24 {
            for x in 0..24 {
                assert!((q.cluster(x, y) as usize) < q.cluster_count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_k_panics() {
        kmeans(&[Vec3::ZERO], 0, 1);
    }
}
