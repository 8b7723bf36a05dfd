//! Byte-identity gates for the raster post-processing kernels: every
//! fast canvas kernel must produce exactly the bytes of its per-pixel
//! `*_scalar` twin, so snapshots, pre-renders and fidelity tiers stay
//! identical whichever path built them.

use msite_render::image::{process, process_scalar, ImageFormat, PostProcess};
use msite_render::{Canvas, Color, Rect};
use msite_support::prop::{self, Gen};

/// A random canvas: a noisy base with flat rectangles over it, so the
/// kernels see both busy windows and uniform runs.
fn arb_canvas(g: &mut Gen, width: u32, height: u32) -> Canvas {
    let mut canvas = Canvas::new(width, height, Color::rgb(g.u8(), g.u8(), g.u8()));
    for y in 0..height as i32 {
        for x in 0..width as i32 {
            if g.range_u32(0, 3) == 0 {
                canvas.set(x, y, Color::rgb(g.u8(), g.u8(), g.u8()));
            }
        }
    }
    for _ in 0..g.range_usize(0, 4) {
        let color = Color::rgb(g.u8(), g.u8(), g.u8());
        canvas.fill_rect_px(
            g.range_u32(0, width) as i32,
            g.range_u32(0, height) as i32,
            g.range_u32(1, width + 1) as i32,
            g.range_u32(1, height + 1) as i32,
            color,
        );
    }
    canvas
}

#[test]
fn downscale_matches_scalar_twin() {
    prop::check("downscale fast vs scalar", 300, 0x0D05_CA1E, |g| {
        // Odd and even widths, down to 1-px edges.
        let width = g.range_u32(1, 80);
        let height = g.range_u32(1, 60);
        let canvas = arb_canvas(g, width, height);
        // Integral factors (2, 3), non-integral ones (1.5, 2.7), the
        // identity, and arbitrary target widths.
        let target = match g.range_u32(0, 3) {
            0 => {
                let factor = *g.pick(&[1.0f32, 1.5, 2.0, 2.7, 3.0]);
                (width as f32 / factor).round() as u32
            }
            1 => width / 2,
            _ => g.range_u32(0, width + 2),
        };
        assert_eq!(
            canvas.downscale_to_width(target),
            canvas.downscale_to_width_scalar(target),
            "{width}x{height} -> width {target}"
        );
    });
}

#[test]
fn exact_halving_covers_odd_heights_and_single_columns() {
    // The 2x2 path's edges: odd heights leave a one-row window at the
    // bottom, and a 2-px-wide canvas halves to a single column.
    let mut g = Gen::new(0x4A1F);
    for (width, height) in [(2, 1), (2, 7), (4, 3), (1024, 5), (6, 2), (10, 11)] {
        let canvas = arb_canvas(&mut g, width, height);
        let half = canvas.downscale_to_width(width / 2);
        assert_eq!(half, canvas.downscale_to_width_scalar(width / 2));
        assert_eq!(half.height(), height.div_ceil(2), "{width}x{height}");
    }
}

#[test]
fn quantize_matches_scalar_twin_at_every_level() {
    // Every byte value, so each table entry is checked at every level.
    let mut base = Canvas::new(256, 1, Color::BLACK);
    for x in 0..256 {
        let v = x as u8;
        base.set(x, 0, Color::rgb(v, v.wrapping_add(85), v.wrapping_add(170)));
    }
    for levels in 2..=256u16 {
        let mut fast = base.clone();
        let mut scalar = base.clone();
        fast.quantize(levels);
        scalar.quantize_scalar(levels);
        assert_eq!(fast, scalar, "levels {levels}");
    }
    // Out-of-range levels clamp the same way in both.
    for levels in [0u16, 1, 257, u16::MAX] {
        let mut fast = base.clone();
        let mut scalar = base.clone();
        fast.quantize(levels);
        scalar.quantize_scalar(levels);
        assert_eq!(fast, scalar, "levels {levels}");
    }
}

#[test]
fn new_matches_scalar_twin() {
    prop::check("Canvas::new fast vs scalar", 200, 0x0C01_0A55, |g| {
        let width = g.range_u32(1, 120);
        let height = g.range_u32(1, 40);
        let color = Color::rgb(g.u8(), g.u8(), g.u8());
        assert_eq!(
            Canvas::new(width, height, color),
            Canvas::new_scalar(width, height, color)
        );
    });
}

/// A crop rect that may hang off any edge but always overlaps the
/// canvas.
fn arb_crop(g: &mut Gen, width: u32, height: u32) -> Rect {
    let x = g.range_u32(0, width) as f32 - g.range_u32(0, 4) as f32;
    let y = g.range_u32(0, height) as f32 - g.range_u32(0, 4) as f32;
    Rect::new(
        x,
        y,
        g.range_u32(4, width + 8) as f32 + g.range_f32(0.0, 0.9),
        g.range_u32(4, height + 8) as f32,
    )
}

#[test]
fn crop_matches_scalar_twin() {
    prop::check("crop fast vs scalar", 300, 0xC80B, |g| {
        let width = g.range_u32(1, 50);
        let height = g.range_u32(1, 50);
        let canvas = arb_canvas(g, width, height);
        let rect = arb_crop(g, width, height);
        assert_eq!(canvas.crop(&rect), canvas.crop_scalar(&rect), "{rect:?}");
    });
}

#[test]
fn process_matches_scalar_twin_with_and_without_crop_and_scale() {
    prop::check("process fast vs scalar", 200, 0x09B0_CE55, |g| {
        let width = g.range_u32(1, 70);
        let height = g.range_u32(1, 50);
        let canvas = arb_canvas(g, width, height);
        let spec = PostProcess {
            crop: g.bool().then(|| arb_crop(g, width, height)),
            scale: if g.bool() {
                Some(*g.pick(&[0.5f32, 0.25, 0.37, 0.66, 1.0]))
            } else {
                None
            },
            format: if g.bool() {
                ImageFormat::Png
            } else {
                ImageFormat::JpegClass {
                    quality: g.range_u8(1, 101),
                }
            },
        };
        let fast = process(&canvas, &spec);
        let scalar = process_scalar(&canvas, &spec);
        assert_eq!(fast.canvas, scalar.canvas, "{spec:?}");
        assert_eq!(fast.encoded, scalar.encoded, "{spec:?}");
        assert_eq!(fast.wire_size, scalar.wire_size, "{spec:?}");
    });
}
