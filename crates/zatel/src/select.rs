//! Representative-pixel selection (paper step 5, Section III-E):
//! Eq. (1) decides *how many* pixels to trace; section blocks plus a colour
//! distribution decide *which*.

use std::collections::BTreeMap;

use minijson::{field, JsonError, Map, ToJson, Value};
use rtcore::math::Pcg;

use crate::partition::Group;
use crate::quantize::QuantizedHeatmap;

/// How quantized colours are distributed among the selected pixels
/// (Section III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Match the group's own colour distribution.
    Uniform,
    /// Weight colours linearly by warmth `c'_j` — Eq. (2).
    LinTmp,
    /// Weight colours by warmth to the fifth power `c'_j⁵` — Eq. (3).
    ExpTmp,
}

/// Parameters of the selection step.
///
/// The struct is `#[non_exhaustive]`: downstream crates start from
/// [`SelectionOptions::default`] and assign the fields they need, so
/// adding a selection knob is never a breaking change.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SelectionOptions {
    /// Section-block width; 32 (the warp size) in the paper.
    pub block_width: u32,
    /// Section-block height; 2 in the paper.
    pub block_height: u32,
    /// Colour distribution method.
    pub distribution: Distribution,
    /// Clamp bounds of Eq. (1); `(0.3, 0.6)` in the paper.
    pub clamp: (f64, f64),
    /// Fixed traced percentage, bypassing Eq. (1) (used by the sweeps of
    /// Figs. 13–16 and Table III).
    pub percent_override: Option<f64>,
    /// Hard upper bound applied after Eq. (1) (the paper's 10 % cap on the
    /// PARK speed run).
    pub percent_cap: Option<f64>,
    /// Seed for the random block choices.
    pub seed: u64,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions {
            block_width: 32,
            block_height: 2,
            distribution: Distribution::Uniform,
            clamp: (0.3, 0.6),
            percent_override: None,
            percent_cap: None,
            seed: 0x5EEC7,
        }
    }
}

minijson::record! {
    pub enum Distribution {
        Uniform => "uniform",
        LinTmp => "lintmp",
        ExpTmp => "exptmp",
    }
}

minijson::record! {
    SelectionOptions {
        "block_width" => block_width,
        "block_height" => block_height,
        "distribution" => distribution,
        clamp: with(write_clamp, read_clamp),
        "percent_override" => percent_override,
        "percent_cap" => percent_cap,
        "seed" => seed,
    }
}

/// The clamp bounds render as two keys, `clamp_lo` and `clamp_hi`.
fn write_clamp(&(lo, hi): &(f64, f64), map: &mut Map) {
    map.insert("clamp_lo".into(), lo.to_json());
    map.insert("clamp_hi".into(), hi.to_json());
}

fn read_clamp(value: &Value, ty: &str) -> Result<(f64, f64), JsonError> {
    Ok((field(value, ty, "clamp_lo")?, field(value, ty, "clamp_hi")?))
}

/// Result of selecting a group's representative pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// One flag per group pixel (in group order): `true` = trace it.
    pub mask: Vec<bool>,
    /// The Eq. (1) target percentage (after clamping/capping).
    pub target_percent: f64,
    /// The fraction actually selected (block granularity makes it differ
    /// slightly from the target).
    pub fraction: f64,
}

/// Eq. (1) before clamping: the mean coolness of the group's pixels,
/// `P = (1/M) Σ c_i`.
pub(crate) fn mean_coolness(group: &Group, quantized: &QuantizedHeatmap) -> f64 {
    assert!(!group.pixels.is_empty(), "group must not be empty");
    let sum: f64 = group
        .pixels
        .iter()
        .map(|p| quantized.coolness(p.x, p.y) as f64)
        .sum();
    sum / group.pixels.len() as f64
}

/// Selects the representative pixels of `group` according to `options`.
///
/// # Panics
///
/// Panics if the group is empty, block dimensions are zero, or percentages
/// are outside `(0, 1]`.
pub fn select_pixels(
    group: &Group,
    quantized: &QuantizedHeatmap,
    options: &SelectionOptions,
) -> Selection {
    assert!(!group.pixels.is_empty(), "group must not be empty");
    assert!(
        options.block_width > 0 && options.block_height > 0,
        "section-block dimensions must be positive"
    );
    let m = group.pixels.len();

    // --- Step 0: how many pixels (Eq. 1) ------------------------------
    let mut percent = match options.percent_override {
        Some(p) => {
            assert!(
                p > 0.0 && p <= 1.0,
                "percent override must be in (0,1], got {p}"
            );
            p
        }
        None => mean_coolness(group, quantized).clamp(options.clamp.0, options.clamp.1),
    };
    if let Some(cap) = options.percent_cap {
        assert!(
            cap > 0.0 && cap <= 1.0,
            "percent cap must be in (0,1], got {cap}"
        );
        percent = percent.min(cap);
    }
    let target = ((percent * m as f64).round() as usize).clamp(1, m);

    // --- Step 1: divide the group into section blocks ------------------
    // Blocks are keyed by image-space tile so the fine-grained chunks map
    // 1:1 onto blocks when the sizes coincide. The tile map is a BTreeMap
    // and blocks are drained in raster (row, column) order, so block
    // indices — and with them the RNG's shuffle candidates — are canonical
    // regardless of the order the group lists its pixels in.
    let mut tiles: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, p) in group.pixels.iter().enumerate() {
        let tile = (p.y / options.block_height, p.x / options.block_width);
        tiles.entry(tile).or_default().push(i);
    }
    let blocks: Vec<Vec<usize>> = tiles.into_values().collect();

    // Dominant quantized colour per block.
    let block_color: Vec<u16> = blocks
        .iter()
        .map(|ixs| {
            let mut counts: BTreeMap<u16, u32> = BTreeMap::new();
            for &i in ixs {
                let p = group.pixels[i];
                *counts.entry(quantized.cluster(p.x, p.y)).or_insert(0) += 1;
            }
            #[expect(
                clippy::expect_used,
                reason = "every tile entry is created with at least one pixel index"
            )]
            counts
                .into_iter()
                .max_by_key(|&(id, n)| (n, std::cmp::Reverse(id)))
                .map(|(id, _)| id)
                .expect("blocks are non-empty")
        })
        .collect();

    // --- Step 2: per-colour quotas (uniform / Eq. 2 / Eq. 3) -----------
    // Sorted keys keep the f64 weight summation order canonical; with a
    // hash map the non-associative sum could change across processes.
    let mut color_pixels: BTreeMap<u16, f64> = BTreeMap::new();
    for p in &group.pixels {
        *color_pixels
            .entry(quantized.cluster(p.x, p.y))
            .or_insert(0.0) += 1.0;
    }
    let weight = |id: u16, count: f64| -> f64 {
        let warmth = 1.0 - quantized.cluster_coolness(id) as f64;
        match options.distribution {
            Distribution::Uniform => count,
            Distribution::LinTmp => count * warmth,
            Distribution::ExpTmp => count * warmth.powi(5),
        }
    };
    let total_weight: f64 = color_pixels.iter().map(|(&id, &n)| weight(id, n)).sum();
    let mut quotas: Vec<(u16, usize)> = color_pixels
        .iter()
        .map(|(&id, &n)| {
            let share = if total_weight > 0.0 {
                weight(id, n) / total_weight
            } else {
                0.0
            };
            (id, (share * target as f64).round() as usize)
        })
        .collect();
    // Deterministic order: largest quota first, colour id as tiebreak.
    quotas.sort_by_key(|&(id, q)| (std::cmp::Reverse(q), id));

    // --- Step 3: pick blocks per colour, then random fill ---------------
    let mut rng = Pcg::new(options.seed ^ (group.index as u64).wrapping_mul(0x9E37_79B9));
    let mut selected_block = vec![false; blocks.len()];
    let mut selected_pixels = 0usize;

    for &(color, quota) in &quotas {
        if quota == 0 {
            continue;
        }
        let mut candidates: Vec<usize> = (0..blocks.len())
            .filter(|&b| block_color[b] == color && !selected_block[b])
            .collect();
        rng.shuffle(&mut candidates);
        let mut got = 0usize;
        for b in candidates {
            if got >= quota || selected_pixels >= target {
                break;
            }
            selected_block[b] = true;
            got += blocks[b].len();
            selected_pixels += blocks[b].len();
        }
    }

    // Not enough pixels with the desired colours: random other blocks.
    if selected_pixels < target {
        let mut rest: Vec<usize> = (0..blocks.len()).filter(|&b| !selected_block[b]).collect();
        rng.shuffle(&mut rest);
        for b in rest {
            if selected_pixels >= target {
                break;
            }
            selected_block[b] = true;
            selected_pixels += blocks[b].len();
        }
    }

    let mut mask = vec![false; m];
    for (b, ixs) in blocks.iter().enumerate() {
        if selected_block[b] {
            for &i in ixs {
                mask[i] = true;
            }
        }
    }
    let fraction = selected_pixels as f64 / m as f64;
    Selection {
        mask,
        target_percent: percent,
        fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::Heatmap;
    use crate::partition::{divide, DivisionMethod};
    use rtcore::tracer::CostMap;

    /// Synthetic quantized map: left half cold, right half hot.
    fn split_map(width: u32, height: u32) -> QuantizedHeatmap {
        let mut costs = CostMap::new(width, height);
        for y in 0..height {
            for x in 0..width {
                costs.set(x, y, if x < width / 2 { 5 } else { 95 });
            }
        }
        QuantizedHeatmap::quantize(&Heatmap::from_costs(&costs), 4, 3)
    }

    fn one_group(width: u32, height: u32) -> Group {
        divide(width, height, 1, DivisionMethod::default_fine())
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn override_percent_is_respected() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let sel = select_pixels(
            &g,
            &q,
            &SelectionOptions {
                percent_override: Some(0.25),
                ..Default::default()
            },
        );
        assert!(
            (sel.fraction - 0.25).abs() < 0.08,
            "fraction {}",
            sel.fraction
        );
        assert_eq!(sel.target_percent, 0.25);
        assert_eq!(sel.mask.len(), g.pixels.len());
        let count = sel.mask.iter().filter(|&&b| b).count();
        assert!((count as f64 / g.pixels.len() as f64 - sel.fraction).abs() < 1e-12);
    }

    #[test]
    fn eq1_clamps_into_bounds() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let sel = select_pixels(&g, &q, &SelectionOptions::default());
        assert!(sel.target_percent >= 0.3 && sel.target_percent <= 0.6);
    }

    #[test]
    fn cap_limits_percentage() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let sel = select_pixels(
            &g,
            &q,
            &SelectionOptions {
                percent_cap: Some(0.1),
                ..Default::default()
            },
        );
        assert!(sel.target_percent <= 0.1 + 1e-12);
        assert!(
            sel.fraction <= 0.15,
            "block rounding should stay near the cap"
        );
    }

    #[test]
    fn mean_coolness_between_extremes() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let p = mean_coolness(&g, &q);
        assert!(
            p > 0.1 && p < 0.9,
            "half cold half hot → mid coolness, got {p}"
        );
    }

    #[test]
    fn exptmp_prefers_hot_pixels() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let frac_hot = |d: Distribution| {
            let sel = select_pixels(
                &g,
                &q,
                &SelectionOptions {
                    distribution: d,
                    percent_override: Some(0.25),
                    ..Default::default()
                },
            );
            let hot: usize = g
                .pixels
                .iter()
                .zip(&sel.mask)
                .filter(|(p, &m)| m && p.x >= 32)
                .count();
            let total = sel.mask.iter().filter(|&&m| m).count();
            hot as f64 / total as f64
        };
        let uni = frac_hot(Distribution::Uniform);
        let exp = frac_hot(Distribution::ExpTmp);
        assert!(
            exp > uni + 0.2,
            "exptmp ({exp:.2}) must concentrate on the hot half vs uniform ({uni:.2})"
        );
        assert!(
            exp > 0.9,
            "nearly all exptmp picks should be hot, got {exp}"
        );
    }

    #[test]
    fn uniform_matches_group_distribution() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let sel = select_pixels(
            &g,
            &q,
            &SelectionOptions {
                percent_override: Some(0.4),
                ..Default::default()
            },
        );
        let hot: usize = g
            .pixels
            .iter()
            .zip(&sel.mask)
            .filter(|(p, &m)| m && p.x >= 32)
            .count();
        let total = sel.mask.iter().filter(|&&m| m).count();
        let share = hot as f64 / total as f64;
        assert!(
            (share - 0.5).abs() < 0.2,
            "uniform should pick ~half hot, got {share}"
        );
    }

    #[test]
    fn selection_is_block_granular() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let opts = SelectionOptions {
            percent_override: Some(0.3),
            ..Default::default()
        };
        let sel = select_pixels(&g, &q, &opts);
        // Every selected pixel's 32×2 block must be fully selected.
        let mut block_state: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for (p, &m) in g.pixels.iter().zip(&sel.mask) {
            let key = (p.x / 32, p.y / 2);
            match block_state.entry(key) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    assert_eq!(*e.get(), m, "block {key:?} partially selected");
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(m);
                }
            }
        }
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let q = split_map(64, 32);
        let g = one_group(64, 32);
        let opts = SelectionOptions {
            percent_override: Some(0.3),
            ..Default::default()
        };
        assert_eq!(select_pixels(&g, &q, &opts), select_pixels(&g, &q, &opts));
        let other = SelectionOptions { seed: 999, ..opts };
        // Different seed → (almost surely) different blocks.
        assert_ne!(
            select_pixels(&g, &q, &opts).mask,
            select_pixels(&g, &q, &other).mask
        );
    }

    #[test]
    fn always_selects_at_least_one_pixel() {
        let q = split_map(32, 2);
        let g = one_group(32, 2);
        let sel = select_pixels(
            &g,
            &q,
            &SelectionOptions {
                percent_override: Some(0.001),
                ..Default::default()
            },
        );
        assert!(sel.mask.iter().any(|&b| b));
    }

    #[test]
    #[should_panic(expected = "percent override")]
    fn bad_override_panics() {
        let q = split_map(32, 2);
        let g = one_group(32, 2);
        select_pixels(
            &g,
            &q,
            &SelectionOptions {
                percent_override: Some(1.5),
                ..Default::default()
            },
        );
    }
}
