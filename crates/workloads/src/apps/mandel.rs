//! Mandelbrot Set (Table I: Mandel).
//!
//! The classic dynamic-parallelism demo: a coarse kernel walks image
//! tiles; tiles that need deep iteration (near or inside the set) launch
//! child kernels to refine per-pixel. The workload here is *real*: the
//! generator runs the escape-time iteration over the complex plane and
//! converts per-tile iteration totals into work items (one item ≈ 8
//! iterations), so the imbalance pattern is the genuine Mandelbrot one —
//! cheap exterior tiles, expensive boundary/interior tiles.

use std::sync::Arc;

use dynapar_engine::DetRng;
use dynapar_gpu::{DpSpec, KernelDesc, WorkClass};

use crate::program::{explicit_source, Benchmark, Scale};

/// Escape-time iteration count for point `(cx, cy)`, capped at `max_iter`.
///
/// Orbits that settle onto a cycle are cut short by Brent's method: the
/// state is saved after 8, 16, 32, … steps, and a later state whose bits
/// equal the saved ones proves the orbit periodic. Every state on the
/// cycle has already passed the `|z|² ≤ 4` test, so the plain loop would
/// run to `max_iter`, which is what is returned. Comparing bits rather
/// than values keeps +0.0 and −0.0 distinct, so the result equals the
/// plain loop's for every input.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::apps::mandel::escape_iters;
///
/// assert_eq!(escape_iters(0.0, 0.0, 256), 256); // origin is in the set
/// assert!(escape_iters(2.0, 2.0, 256) < 5);     // far outside escapes fast
/// ```
pub fn escape_iters(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let mut x = 0.0f64;
    let mut y = 0.0f64;
    let (mut saved_x, mut saved_y) = (x.to_bits(), y.to_bits());
    let mut next_save = 8;
    let mut i = 0;
    while i < max_iter && x * x + y * y <= 4.0 {
        let xt = x * x - y * y + cx;
        y = 2.0 * x * y + cy;
        x = xt;
        i += 1;
        if x.to_bits() == saved_x && y.to_bits() == saved_y {
            return max_iter;
        }
        if i == next_save {
            (saved_x, saved_y) = (x.to_bits(), y.to_bits());
            next_save *= 2;
        }
    }
    i
}

/// [`escape_iters`] for one pixel of `build`'s grid, with pixels in the
/// main cardioid or the period-2 bulb (where every orbit stays bounded)
/// counted as `max_iter` without iterating. Near those regions'
/// boundaries the float test and the escape loop could disagree, so the
/// shortcut is exact only on the grids `build` samples: unit tests check
/// it against the plain loop pixel by pixel at every scale. It stays out
/// of the public [`escape_iters`].
fn pixel_iters(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let xq = cx - 0.25;
    let q = xq * xq + cy * cy;
    let xb = cx + 1.0;
    if q * (q + xq) <= 0.25 * cy * cy || xb * xb + cy * cy <= 0.0625 {
        max_iter
    } else {
        escape_iters(cx, cy, max_iter)
    }
}

/// Iterations folded into one work item.
pub const ITERS_PER_ITEM: u32 = 8;

/// Maximum escape iterations per pixel at [`Scale::Paper`]; smaller
/// scales reduce the cap proportionally so runs stay quick.
pub const MAX_ITER: u32 = 4096;

/// Per-scale iteration cap.
pub fn max_iter_at(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 512,
        Scale::Small => 2048,
        Scale::Paper => MAX_ITER,
    }
}

/// Pixels per tile (one parent thread per tile).
pub const TILE_PIXELS: u32 = 32;

/// Default source-level `THRESHOLD` in work items.
pub const DEFAULT_THRESHOLD: u32 = 256;

/// Builds the Mandelbrot benchmark.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::{apps::mandel, Scale};
///
/// let b = mandel::build(Scale::Tiny, 42);
/// assert_eq!(b.name(), "Mandel");
/// ```
pub fn build(scale: Scale, seed: u64) -> Benchmark {
    let max_iter = max_iter_at(scale);
    let mut items = tile_items(scale, |cx, cy| pixel_iters(cx, cy, max_iter));
    // The DP implementation hands tiles to threads through a work queue,
    // so consecutive threads do not own adjacent (similar-depth) tiles;
    // shuffling reproduces that decorrelated assignment and the intra-warp
    // divergence it causes.
    let mut rng = DetRng::new(seed ^ 0x3A_4D55);
    rng.shuffle(&mut items);
    // Pure compute: the iteration loop is register-resident.
    let parent_class = Arc::new(WorkClass {
        init_cycles: 20,
        ..WorkClass::compute_only("mandel-parent", 12)
    });
    let child_class = Arc::new(WorkClass {
        init_cycles: 16,
        ..WorkClass::compute_only("mandel-child", 12)
    });
    let dp = Arc::new(DpSpec {
        child_class,
        child_cta_threads: 64,
        child_items_per_thread: 8, // ~two pixels' refinement per thread
        child_regs_per_thread: 24,
        child_shmem_per_cta: 0,
        min_items: 32,
        default_threshold: DEFAULT_THRESHOLD,
        nested: None,
    });
    let desc = KernelDesc {
        name: "Mandel".into(),
        cta_threads: 64,
        regs_per_thread: 28,
        shmem_per_cta: 0,
        class: parent_class,
        source: explicit_source(&items, 0, 0x3A_4DE1),
        dp: Some(dp),
    };
    Benchmark::new("Mandel", "Mandel", "escape-time grid", desc)
}

/// Per-tile work items over the image grid at `scale`, row by row,
/// with `iters(cx, cy)` giving each pixel's escape-iteration count.
fn tile_items(scale: Scale, iters: impl Fn(f64, f64) -> u32) -> Vec<u32> {
    // Image dims: width fixed, height scales.
    let width = 256u32;
    let height = match scale {
        Scale::Tiny => 64,
        Scale::Small => 256,
        Scale::Paper => 1024,
    };
    let (x0, x1) = (-2.2f64, 1.0);
    let (y0, y1) = (-1.2f64, 1.2);
    let mut items: Vec<u32> = Vec::with_capacity((width * height / TILE_PIXELS) as usize);
    for py in 0..height {
        let cy = y0 + (y1 - y0) * (py as f64 + 0.5) / height as f64;
        let mut px = 0;
        while px < width {
            let mut tile_iters = 0u32;
            for dx in 0..TILE_PIXELS {
                let cx = x0 + (x1 - x0) * ((px + dx) as f64 + 0.5) / width as f64;
                tile_iters += iters(cx, cy);
            }
            items.push(tile_iters.div_ceil(ITERS_PER_ITEM).max(1));
            px += TILE_PIXELS;
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_core::BaselineDp;
    use dynapar_gpu::GpuConfig;

    #[test]
    fn escape_iteration_sanity() {
        assert_eq!(escape_iters(0.0, 0.0, 100), 100);
        assert_eq!(escape_iters(-1.0, 0.0, 100), 100); // period-2 bulb
        assert!(escape_iters(1.5, 1.5, 100) < 3);
    }

    /// The escape loop with neither shortcut: the reference both are
    /// checked against.
    fn plain_escape_iters(cx: f64, cy: f64, max_iter: u32) -> u32 {
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        let mut i = 0;
        while i < max_iter && x * x + y * y <= 4.0 {
            let xt = x * x - y * y + cx;
            y = 2.0 * x * y + cy;
            x = xt;
            i += 1;
        }
        i
    }

    /// Counts the pixels of `build`'s grid at `scale` where the
    /// shortcut path and the plain loop disagree.
    fn differing_pixels(scale: Scale) -> usize {
        let max_iter = max_iter_at(scale);
        let differing = std::cell::Cell::new(0);
        tile_items(scale, |cx, cy| {
            let fast = pixel_iters(cx, cy, max_iter);
            if fast != plain_escape_iters(cx, cy, max_iter) {
                differing.set(differing.get() + 1);
            }
            fast
        });
        differing.get()
    }

    #[test]
    fn shortcut_grid_equals_plain_loop() {
        assert_eq!(differing_pixels(Scale::Tiny), 0);
        assert_eq!(differing_pixels(Scale::Small), 0);
    }

    #[test]
    #[ignore = "seconds in a debug build; run with --release -- --ignored"]
    fn paper_shortcut_grid_equals_plain_loop() {
        assert_eq!(differing_pixels(Scale::Paper), 0);
    }

    #[test]
    fn cycle_detection_equals_plain_loop() {
        let mut rng = DetRng::new(0x5EED);
        for k in 0..10_000 {
            let (cx, cy) = if k % 2 == 0 {
                // Within 1e-3 of the main cardioid's boundary
                // c = e^{it}/2 - e^{2it}/4, where orbits are slowest to
                // settle or escape.
                let t = rng.unit() * std::f64::consts::TAU;
                let bx = t.cos() / 2.0 - (2.0 * t).cos() / 4.0;
                let by = t.sin() / 2.0 - (2.0 * t).sin() / 4.0;
                (
                    bx + (rng.unit() - 0.5) * 2e-3,
                    by + (rng.unit() - 0.5) * 2e-3,
                )
            } else {
                (-2.2 + 3.2 * rng.unit(), -1.2 + 2.4 * rng.unit())
            };
            let max_iter = [64, 512, MAX_ITER][k % 3];
            assert_eq!(
                escape_iters(cx, cy, max_iter),
                plain_escape_iters(cx, cy, max_iter),
                "({cx}, {cy}) at max_iter {max_iter}"
            );
        }
    }

    #[test]
    fn workload_is_bimodal() {
        let b = build(Scale::Tiny, 0);
        let (min, _, max) = b.workload_spread();
        // Exterior tiles are cheap, interior tiles hit the iteration cap.
        assert!(min <= 4, "exterior tiles should be tiny, min={min}");
        assert_eq!(
            max,
            TILE_PIXELS * max_iter_at(Scale::Tiny) / ITERS_PER_ITEM,
            "interior tiles saturate"
        );
    }

    #[test]
    fn dp_run_offloads_deep_tiles() {
        let b = build(Scale::Tiny, 0);
        let r = b.run(&GpuConfig::test_small(), Box::new(BaselineDp::new()));
        assert!(r.child_kernels_launched > 0);
        assert_eq!(r.items_total(), b.total_items());
    }
}
