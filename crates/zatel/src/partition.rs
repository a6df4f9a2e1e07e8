//! Image-plane division into K groups (paper step 4, Section III-D):
//! coarse-grained rectangles or fine-grained interleaved chunks.

use minijson::{field, json, FromJson, JsonError, ToJson, Value};
use rtworkload::Pixel;

/// How the image plane is divided into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisionMethod {
    /// Split into a near-square grid of K contiguous rectangles (Fig. 5).
    /// Emphasizes ray locality.
    Coarse,
    /// Split into `width × height`-pixel chunks dealt diagonally
    /// round-robin to the K groups (Fig. 6). Each group homogeneously
    /// samples the whole scene; Zatel's default with 32×2 chunks.
    Fine {
        /// Chunk width in pixels (32 = warp size, the paper's choice).
        chunk_width: u32,
        /// Chunk height in pixels (2 in the paper).
        chunk_height: u32,
    },
}

impl DivisionMethod {
    /// The paper's default: fine-grained division with 32×2 chunks.
    pub fn default_fine() -> Self {
        DivisionMethod::Fine {
            chunk_width: 32,
            chunk_height: 2,
        }
    }

    /// The method's name, `fine` or `coarse`: its JSON `method` tag.
    pub fn name(self) -> &'static str {
        match self {
            DivisionMethod::Coarse => "coarse",
            DivisionMethod::Fine { .. } => "fine",
        }
    }

    /// The method [`DivisionMethod::name`] calls `name`; `fine` has the
    /// paper's 32×2 chunks.
    ///
    /// # Errors
    ///
    /// Returns a message listing the names when `name` is neither.
    pub fn named(name: &str) -> Result<Self, String> {
        let methods = [DivisionMethod::default_fine(), DivisionMethod::Coarse];
        methods
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                let [a, b] = methods.map(DivisionMethod::name);
                format!("unknown division method {name:?} (expected {a:?} or {b:?})")
            })
    }
}

/// Hand-written: the `method` tag decides which other keys exist.
impl ToJson for DivisionMethod {
    fn to_json(&self) -> Value {
        let method = self.name();
        match *self {
            DivisionMethod::Coarse => json!({ "method": method }),
            DivisionMethod::Fine {
                chunk_width,
                chunk_height,
            } => {
                json!({ "method": method, "chunk_width": chunk_width, "chunk_height": chunk_height })
            }
        }
    }
}

impl FromJson for DivisionMethod {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        const TY: &str = "DivisionMethod";
        minijson::object(value, TY)?;
        let method = field::<String>(value, TY, "method")?;
        match DivisionMethod::named(&method).map_err(JsonError::conversion)? {
            DivisionMethod::Fine { .. } => Ok(DivisionMethod::Fine {
                chunk_width: field(value, TY, "chunk_width")?,
                chunk_height: field(value, TY, "chunk_height")?,
            }),
            coarse => Ok(coarse),
        }
    }
}

/// One group of pixels assigned to a downscaled-GPU simulation instance.
///
/// The pixel order is warp order: consecutive runs of 32 pixels become one
/// warp in the timing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group index in `[0, K)`.
    pub index: u32,
    /// Pixels in thread/warp order.
    pub pixels: Vec<Pixel>,
}

/// Splits a `width × height` image plane into `k` groups.
///
/// # Panics
///
/// Panics if `k == 0`, if the image is empty, or (fine-grained) if a chunk
/// dimension is zero.
pub fn divide(width: u32, height: u32, k: u32, method: DivisionMethod) -> Vec<Group> {
    assert!(k > 0, "need at least one group");
    assert!(width > 0 && height > 0, "image must be non-empty");
    match method {
        DivisionMethod::Coarse => divide_coarse(width, height, k),
        DivisionMethod::Fine {
            chunk_width,
            chunk_height,
        } => {
            assert!(
                chunk_width > 0 && chunk_height > 0,
                "chunk dimensions must be positive"
            );
            divide_fine(width, height, k, chunk_width, chunk_height)
        }
    }
}

/// How many chunks [`divide`] deals out to the `k` groups: fine chunks, or
/// coarse grid cells that hold a pixel. With fewer than `k`, some group
/// gets no pixel.
///
/// # Panics
///
/// Panics if `k == 0` or (fine-grained) a chunk dimension is zero.
pub(crate) fn chunk_count(width: u32, height: u32, k: u32, method: DivisionMethod) -> u64 {
    match method {
        DivisionMethod::Coarse => {
            let (rows, cols) = grid_shape(k);
            u64::from(rows.min(height)) * u64::from(cols.min(width))
        }
        DivisionMethod::Fine {
            chunk_width,
            chunk_height,
        } => u64::from(width.div_ceil(chunk_width)) * u64::from(height.div_ceil(chunk_height)),
    }
}

/// Picks the factor pair `rows × cols = k` with rows ≤ cols closest to
/// square (Fig. 5 splits K=6 into 3 rows × 2 columns; we produce 2 × 3,
/// equivalent up to orientation).
fn grid_shape(k: u32) -> (u32, u32) {
    let mut best = (1, k);
    let mut r = 1;
    while r * r <= k {
        if k.is_multiple_of(r) {
            best = (r, k / r);
        }
        r += 1;
    }
    best
}

fn divide_coarse(width: u32, height: u32, k: u32) -> Vec<Group> {
    let (rows, cols) = grid_shape(k);
    let mut groups: Vec<Group> = (0..k)
        .map(|index| Group {
            index,
            pixels: Vec::new(),
        })
        .collect();
    for y in 0..height {
        let row = (y as u64 * rows as u64 / height as u64) as u32;
        let row = row.min(rows - 1);
        for x in 0..width {
            let col = (x as u64 * cols as u64 / width as u64) as u32;
            let col = col.min(cols - 1);
            let g = (row * cols + col) as usize;
            groups[g].pixels.push(Pixel::new(x, y));
        }
    }
    groups
}

fn divide_fine(width: u32, height: u32, k: u32, cw: u32, ch: u32) -> Vec<Group> {
    let chunks_x = width.div_ceil(cw);
    let chunks_y = height.div_ceil(ch);
    let mut groups: Vec<Group> = (0..k)
        .map(|index| Group {
            index,
            pixels: Vec::new(),
        })
        .collect();
    for cy in 0..chunks_y {
        for cx in 0..chunks_x {
            // Diagonal round-robin assignment (Fig. 6): neighbouring chunks
            // in both directions land in different groups.
            let g = ((cx + cy) % k) as usize;
            let pixels = &mut groups[g].pixels;
            for y in cy * ch..((cy + 1) * ch).min(height) {
                for x in cx * cw..((cx + 1) * cw).min(width) {
                    pixels.push(Pixel::new(x, y));
                }
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_is_partition(groups: &[Group], width: u32, height: u32) {
        let mut seen = HashSet::new();
        for g in groups {
            for p in &g.pixels {
                assert!(p.x < width && p.y < height, "pixel in bounds");
                assert!(seen.insert(*p), "pixel {p:?} appears twice");
            }
        }
        assert_eq!(
            seen.len() as u64,
            width as u64 * height as u64,
            "every pixel covered"
        );
    }

    #[test]
    fn grid_shape_prefers_square() {
        assert_eq!(grid_shape(6), (2, 3));
        assert_eq!(grid_shape(4), (2, 2));
        assert_eq!(grid_shape(7), (1, 7));
        assert_eq!(grid_shape(1), (1, 1));
        assert_eq!(grid_shape(12), (3, 4));
    }

    #[test]
    fn coarse_is_a_partition_with_equal_sizes() {
        let groups = divide(96, 48, 6, DivisionMethod::Coarse);
        assert_eq!(groups.len(), 6);
        assert_is_partition(&groups, 96, 48);
        for g in &groups {
            assert_eq!(g.pixels.len(), 96 * 48 / 6, "group {}", g.index);
        }
    }

    #[test]
    fn coarse_groups_are_contiguous_rectangles() {
        let groups = divide(8, 8, 4, DivisionMethod::Coarse);
        for g in &groups {
            let xs: Vec<u32> = g.pixels.iter().map(|p| p.x).collect();
            let ys: Vec<u32> = g.pixels.iter().map(|p| p.y).collect();
            let (w, h) = (
                xs.iter().max().unwrap() - xs.iter().min().unwrap() + 1,
                ys.iter().max().unwrap() - ys.iter().min().unwrap() + 1,
            );
            assert_eq!(
                (w * h) as usize,
                g.pixels.len(),
                "group {} is a rectangle",
                g.index
            );
        }
    }

    #[test]
    fn fine_is_a_partition_with_equal_sizes() {
        let groups = divide(128, 64, 4, DivisionMethod::default_fine());
        assert_eq!(groups.len(), 4);
        assert_is_partition(&groups, 128, 64);
        for g in &groups {
            assert_eq!(g.pixels.len(), 128 * 64 / 4);
        }
    }

    #[test]
    fn fine_groups_sample_the_whole_plane() {
        // Every group must touch all four quadrants (homogeneous sampling).
        let groups = divide(128, 128, 4, DivisionMethod::default_fine());
        for g in &groups {
            for (qx, qy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let found = g.pixels.iter().any(|p| {
                    (p.x >= qx * 64 && p.x < (qx + 1) * 64)
                        && (p.y >= qy * 64 && p.y < (qy + 1) * 64)
                });
                assert!(found, "group {} misses quadrant ({qx},{qy})", g.index);
            }
        }
    }

    #[test]
    fn fine_diagonal_assignment_matches_fig6() {
        // 5×5 chunks of 1×1 pixel, K=4: Fig. 6's diagonal pattern.
        let groups = divide(
            5,
            5,
            4,
            DivisionMethod::Fine {
                chunk_width: 1,
                chunk_height: 1,
            },
        );
        let group_of = |x: u32, y: u32| {
            groups
                .iter()
                .find(|g| g.pixels.contains(&Pixel::new(x, y)))
                .unwrap()
                .index
        };
        let expect = [
            [0, 1, 2, 3, 0],
            [1, 2, 3, 0, 1],
            [2, 3, 0, 1, 2],
            [3, 0, 1, 2, 3],
            [0, 1, 2, 3, 0],
        ];
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(group_of(x, y), expect[y as usize][x as usize], "({x},{y})");
            }
        }
    }

    #[test]
    fn fine_chunk_rows_form_warps() {
        // With 32×2 chunks each chunk contributes two 32-pixel rows: pixel
        // list positions [0,32) share y and span 32 consecutive x.
        let groups = divide(128, 64, 4, DivisionMethod::default_fine());
        let g = &groups[0];
        let first_warp = &g.pixels[0..32];
        let y0 = first_warp[0].y;
        assert!(first_warp.iter().all(|p| p.y == y0));
        for w in first_warp.windows(2) {
            assert_eq!(w[1].x, w[0].x + 1, "warp pixels are consecutive");
        }
    }

    #[test]
    fn k_equals_one_yields_everything() {
        let groups = divide(16, 16, 1, DivisionMethod::default_fine());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].pixels.len(), 256);
    }

    #[test]
    fn non_divisible_dimensions_still_partition() {
        let groups = divide(50, 30, 3, DivisionMethod::default_fine());
        assert_is_partition(&groups, 50, 30);
        let groups = divide(50, 30, 3, DivisionMethod::Coarse);
        assert_is_partition(&groups, 50, 30);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_k_panics() {
        divide(8, 8, 0, DivisionMethod::Coarse);
    }
}
