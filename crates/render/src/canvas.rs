//! A software RGB canvas: the raster target of the rendering engine.

use crate::font;
use crate::geom::{Color, Rect};

/// An RGB8 pixel buffer with drawing primitives.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color};
///
/// let mut canvas = Canvas::new(100, 50, Color::WHITE);
/// canvas.fill_rect_px(10, 10, 30, 20, Color::rgb(200, 0, 0));
/// canvas.draw_text(12, 12, "hi", 13.0, Color::BLACK);
/// assert_eq!(canvas.get(0, 0), Color::WHITE);
/// assert_eq!(canvas.get(10, 10), Color::rgb(200, 0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: u32,
    height: u32,
    pixels: Vec<u8>, // RGB interleaved
}

impl Canvas {
    /// Creates a canvas filled with `background`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the buffer would exceed
    /// 512 MiB (runaway-layout guard).
    pub fn new(width: u32, height: u32, background: Color) -> Self {
        let pixel_count = Self::checked_pixel_count(width, height);
        Canvas {
            width,
            height,
            pixels: [background.r, background.g, background.b].repeat(pixel_count),
        }
    }

    /// Per-pixel twin of [`Canvas::new`]: appends the background one
    /// pixel at a time. Kept as the identity-test and bench oracle.
    #[doc(hidden)]
    pub fn new_scalar(width: u32, height: u32, background: Color) -> Self {
        let pixel_count = Self::checked_pixel_count(width, height);
        let mut pixels = Vec::with_capacity(pixel_count * 3);
        for _ in 0..pixel_count {
            pixels.extend_from_slice(&[background.r, background.g, background.b]);
        }
        Canvas {
            width,
            height,
            pixels,
        }
    }

    /// The pixel count of a `width`×`height` canvas, enforcing the
    /// nonzero-dimension and 512 MiB guards of [`Canvas::new`].
    fn checked_pixel_count(width: u32, height: u32) -> usize {
        assert!(width > 0 && height > 0, "canvas dimensions must be nonzero");
        let bytes = width as u64 * height as u64 * 3;
        assert!(
            bytes <= 512 * 1024 * 1024,
            "canvas too large: {bytes} bytes"
        );
        (width as u64 * height as u64) as usize
    }

    /// Canvas width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Canvas height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGB8 bytes, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel color at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Color {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        Color::rgb(self.pixels[i], self.pixels[i + 1], self.pixels[i + 2])
    }

    /// Sets one pixel; silently clips when out of bounds.
    pub fn set(&mut self, x: i32, y: i32, color: Color) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        let i = ((y as u32 * self.width + x as u32) * 3) as usize;
        self.pixels[i] = color.r;
        self.pixels[i + 1] = color.g;
        self.pixels[i + 2] = color.b;
    }

    /// Fills an integer-pixel rectangle, clipping to the canvas.
    pub fn fill_rect_px(&mut self, x: i32, y: i32, w: i32, h: i32, color: Color) {
        let x0 = x.max(0) as u32;
        let y0 = y.max(0) as u32;
        let x1 = (x + w).clamp(0, self.width as i32) as u32;
        let y1 = (y + h).clamp(0, self.height as i32) as u32;
        for row in y0..y1 {
            let base = ((row * self.width + x0) * 3) as usize;
            let end = ((row * self.width + x1) * 3) as usize;
            let mut i = base;
            while i < end {
                self.pixels[i] = color.r;
                self.pixels[i + 1] = color.g;
                self.pixels[i + 2] = color.b;
                i += 3;
            }
        }
    }

    /// Fills a [`Rect`] (rounded outward to pixels).
    pub fn fill_rect(&mut self, rect: &Rect, color: Color) {
        let (x, y, w, h) = rect.to_pixels();
        self.fill_rect_px(x, y, w, h, color);
    }

    /// Strokes the border of a [`Rect`] with the given pixel width.
    pub fn stroke_rect(&mut self, rect: &Rect, width: u32, color: Color) {
        if width == 0 {
            return;
        }
        let (x, y, w, h) = rect.to_pixels();
        let bw = width as i32;
        self.fill_rect_px(x, y, w, bw, color); // top
        self.fill_rect_px(x, y + h - bw, w, bw, color); // bottom
        self.fill_rect_px(x, y, bw, h, color); // left
        self.fill_rect_px(x + w - bw, y, bw, h, color); // right
    }

    /// Draws text with the built-in 5×7 font; the origin is the top-left
    /// of the first glyph cell. Returns the advance in pixels.
    pub fn draw_text(&mut self, x: i32, y: i32, text: &str, font_size: f32, color: Color) -> i32 {
        let scale = font::scale_for(font_size) as i32;
        let mut cx = x;
        for ch in text.chars() {
            for col in 0..5u32 {
                for row in 0..7u32 {
                    if font::pixel_set(ch, col, row) {
                        self.fill_rect_px(
                            cx + col as i32 * scale,
                            y + row as i32 * scale,
                            scale,
                            scale,
                            color,
                        );
                    }
                }
            }
            cx += font::CELL_WIDTH as i32 * scale;
        }
        cx - x
    }

    /// Draws a crossed placeholder box — how the engine depicts images
    /// and plugins it does not decode (the thumbnail look of early mobile
    /// browsers).
    pub fn draw_placeholder(&mut self, rect: &Rect, border: Color, fill: Color) {
        self.fill_rect(rect, fill);
        self.stroke_rect(rect, 1, border);
        let (x, y, w, h) = rect.to_pixels();
        // Diagonals via simple DDA.
        let steps = w.max(h).max(1);
        for i in 0..=steps {
            let fx = x + (i * (w - 1).max(0)) / steps;
            let fy = y + (i * (h - 1).max(0)) / steps;
            self.set(fx, fy, border);
            self.set(x + (w - 1).max(0) - (fx - x), fy, border);
        }
    }

    /// Box-filter downsample to a new width, preserving aspect ratio.
    /// A `new_width` of at least 1 is enforced.
    ///
    /// Each output pixel is the truncated mean of its source window.
    /// Window bounds come from the same `f32` expressions as
    /// [`Canvas::downscale_to_width_scalar`], evaluated once per column
    /// and once per row, so both twins produce the same bytes. Each
    /// output row first sums its source rows into per-column `u32`
    /// totals, then sums each column window in `u64`. The `u32` totals
    /// cannot overflow: a window is at most `min(height, factor + 2)`
    /// rows tall with `factor <= width`, and the 512 MiB guard keeps
    /// `width × height` under 179M, so no window exceeds 13,400 rows. A
    /// window's area has no such bound (a wide canvas downscaled to
    /// width 1), hence the `u64` window sums.
    pub fn downscale_to_width(&self, new_width: u32) -> Canvas {
        let new_width = new_width.clamp(1, self.width);
        let factor = self.width as f32 / new_width as f32;
        let new_height = ((self.height as f32 / factor).round() as u32).max(1);
        let window = |o: u32, limit: u32| {
            let lo = (o as f32 * factor) as u32;
            let hi = (((o + 1) as f32 * factor) as u32).clamp(lo + 1, limit);
            (lo as usize, hi as usize)
        };
        let cols: Vec<(usize, usize)> = (0..new_width).map(|ox| window(ox, self.width)).collect();
        // Exact halving: every column window is the pixel pair
        // [2x, 2x + 2), so a two-row window has n = 4 and the mean is
        // the plain integer `sum / 4`.
        let halving = cols
            .iter()
            .enumerate()
            .all(|(ox, &(lo, hi))| lo == 2 * ox && hi == lo + 2);
        let stride = self.width as usize * 3;
        let mut pixels = vec![0u8; new_width as usize * new_height as usize * 3];
        let mut col_sums = vec![0u32; stride];
        let mut pair_sums = vec![0u16; stride];
        for (oy, out) in (0..new_height).zip(pixels.chunks_exact_mut(new_width as usize * 3)) {
            let (sy0, sy1) = window(oy, self.height);
            let rows = &self.pixels[sy0 * stride..sy1 * stride];
            if halving && sy1 - sy0 == 2 {
                let (top, bottom) = rows.split_at(stride);
                for ((sum, &a), &b) in pair_sums.iter_mut().zip(top).zip(bottom) {
                    *sum = a as u16 + b as u16;
                }
                for (o, p) in out.chunks_exact_mut(3).zip(pair_sums.chunks_exact(6)) {
                    o[0] = ((p[0] + p[3]) / 4) as u8;
                    o[1] = ((p[1] + p[4]) / 4) as u8;
                    o[2] = ((p[2] + p[5]) / 4) as u8;
                }
                continue;
            }
            col_sums.fill(0);
            for row in rows.chunks_exact(stride) {
                for (sum, &byte) in col_sums.iter_mut().zip(row) {
                    *sum += byte as u32;
                }
            }
            let height = (sy1 - sy0) as u64;
            for (o, &(sx0, sx1)) in out.chunks_exact_mut(3).zip(&cols) {
                let mut acc = [0u64; 3];
                for px in col_sums[sx0 * 3..sx1 * 3].chunks_exact(3) {
                    acc[0] += px[0] as u64;
                    acc[1] += px[1] as u64;
                    acc[2] += px[2] as u64;
                }
                let n = height * (sx1 - sx0) as u64;
                for c in 0..3 {
                    o[c] = (acc[c] / n) as u8;
                }
            }
        }
        Canvas {
            width: new_width,
            height: new_height,
            pixels,
        }
    }

    /// Per-pixel twin of [`Canvas::downscale_to_width`]: recomputes the
    /// window bounds for every output pixel and reads the source through
    /// indexed loads. Kept as the identity-test and bench oracle.
    #[doc(hidden)]
    pub fn downscale_to_width_scalar(&self, new_width: u32) -> Canvas {
        let new_width = new_width.clamp(1, self.width);
        let factor = self.width as f32 / new_width as f32;
        let new_height = ((self.height as f32 / factor).round() as u32).max(1);
        let mut out = Canvas::new_scalar(new_width, new_height, Color::WHITE);
        for oy in 0..new_height {
            for ox in 0..new_width {
                // Source window.
                let sx0 = (ox as f32 * factor) as u32;
                let sy0 = (oy as f32 * factor) as u32;
                let sx1 = (((ox + 1) as f32 * factor) as u32).clamp(sx0 + 1, self.width);
                let sy1 = (((oy + 1) as f32 * factor) as u32).clamp(sy0 + 1, self.height);
                let mut acc = [0u64; 3];
                let mut n = 0u64;
                for sy in sy0..sy1 {
                    for sx in sx0..sx1 {
                        let i = ((sy * self.width + sx) * 3) as usize;
                        acc[0] += self.pixels[i] as u64;
                        acc[1] += self.pixels[i + 1] as u64;
                        acc[2] += self.pixels[i + 2] as u64;
                        n += 1;
                    }
                }
                out.set(
                    ox as i32,
                    oy as i32,
                    Color::rgb((acc[0] / n) as u8, (acc[1] / n) as u8, (acc[2] / n) as u8),
                );
            }
        }
        out
    }

    /// Quantizes every channel to `levels` distinct values (2..=256) —
    /// the fidelity-reduction post-processor knob. Each byte maps
    /// through a 256-entry table built with the `f32` expression of
    /// [`Canvas::quantize_scalar`].
    pub fn quantize(&mut self, levels: u16) {
        let levels = levels.clamp(2, 256) as u32;
        let step = 255.0 / (levels - 1) as f32;
        let mut table = [0u8; 256];
        for (value, slot) in table.iter_mut().enumerate() {
            let level = (value as f32 / step).round();
            *slot = (level * step).round().clamp(0.0, 255.0) as u8;
        }
        for byte in &mut self.pixels {
            *byte = table[*byte as usize];
        }
    }

    /// Per-byte twin of [`Canvas::quantize`]: evaluates the `f32`
    /// rounding for every byte. Kept as the identity-test and bench
    /// oracle.
    #[doc(hidden)]
    pub fn quantize_scalar(&mut self, levels: u16) {
        let levels = levels.clamp(2, 256) as u32;
        let step = 255.0 / (levels - 1) as f32;
        for byte in &mut self.pixels {
            let level = (*byte as f32 / step).round();
            *byte = (level * step).round().clamp(0.0, 255.0) as u8;
        }
    }

    /// Crops to the intersection of `rect` with the canvas.
    ///
    /// # Panics
    ///
    /// Panics when the intersection is empty.
    pub fn crop(&self, rect: &Rect) -> Canvas {
        let (x0, y0, x1, y1) = self.crop_bounds(rect);
        let stride = self.width as usize * 3;
        let (start, end) = (x0 as usize * 3, x1 as usize * 3);
        let mut pixels = Vec::with_capacity((end - start) * (y1 - y0) as usize);
        for row in self.pixels[y0 as usize * stride..y1 as usize * stride].chunks_exact(stride) {
            pixels.extend_from_slice(&row[start..end]);
        }
        Canvas {
            width: x1 - x0,
            height: y1 - y0,
            pixels,
        }
    }

    /// Per-pixel twin of [`Canvas::crop`], copying through `get`/`set`.
    /// Kept as the identity-test oracle.
    #[doc(hidden)]
    pub fn crop_scalar(&self, rect: &Rect) -> Canvas {
        let (x0, y0, x1, y1) = self.crop_bounds(rect);
        let mut out = Canvas::new_scalar(x1 - x0, y1 - y0, Color::WHITE);
        for row in y0..y1 {
            for col in x0..x1 {
                out.set((col - x0) as i32, (row - y0) as i32, self.get(col, row));
            }
        }
        out
    }

    /// `rect` clipped to the canvas as `(x0, y0, x1, y1)`, exclusive.
    fn crop_bounds(&self, rect: &Rect) -> (u32, u32, u32, u32) {
        let (x, y, w, h) = rect.to_pixels();
        let x0 = x.max(0) as u32;
        let y0 = y.max(0) as u32;
        let x1 = ((x + w).max(0) as u32).min(self.width);
        let y1 = ((y + h).max(0) as u32).min(self.height);
        assert!(x1 > x0 && y1 > y0, "crop region empty");
        (x0, y0, x1, y1)
    }

    /// Number of distinct colors present (post-quantization metric).
    pub fn distinct_colors(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for chunk in self.pixels.chunks_exact(3) {
            seen.insert([chunk[0], chunk[1], chunk[2]]);
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_background() {
        let c = Canvas::new(4, 3, Color::rgb(9, 8, 7));
        assert_eq!(c.width(), 4);
        assert_eq!(c.height(), 3);
        assert_eq!(c.get(3, 2), Color::rgb(9, 8, 7));
        assert_eq!(c.pixels().len(), 4 * 3 * 3);
    }

    #[test]
    fn fill_rect_clips() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.fill_rect_px(-5, -5, 8, 8, Color::BLACK);
        assert_eq!(c.get(0, 0), Color::BLACK);
        assert_eq!(c.get(2, 2), Color::BLACK);
        assert_eq!(c.get(3, 3), Color::WHITE);
        c.fill_rect_px(8, 8, 100, 100, Color::BLACK);
        assert_eq!(c.get(9, 9), Color::BLACK);
    }

    #[test]
    fn stroke_draws_only_border() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.stroke_rect(&Rect::new(1.0, 1.0, 8.0, 8.0), 1, Color::BLACK);
        assert_eq!(c.get(1, 1), Color::BLACK);
        assert_eq!(c.get(8, 1), Color::BLACK);
        assert_eq!(c.get(4, 4), Color::WHITE);
    }

    #[test]
    fn text_marks_pixels() {
        let mut c = Canvas::new(40, 20, Color::WHITE);
        let advance = c.draw_text(0, 0, "AB", 8.0, Color::BLACK);
        assert_eq!(advance, 12); // two cells at scale 1
                                 // Some pixel of 'A' must be black.
        let mut black = 0;
        for y in 0..8 {
            for x in 0..6 {
                if c.get(x, y) == Color::BLACK {
                    black += 1;
                }
            }
        }
        assert!(black >= 5);
    }

    #[test]
    fn text_scale_doubles_advance() {
        let mut c = Canvas::new(200, 40, Color::WHITE);
        let a1 = c.draw_text(0, 0, "xyz", 8.0, Color::BLACK);
        let a2 = c.draw_text(0, 20, "xyz", 16.0, Color::BLACK);
        assert_eq!(a2, a1 * 2);
    }

    #[test]
    fn downscale_halves_dimensions() {
        let mut c = Canvas::new(100, 60, Color::WHITE);
        c.fill_rect_px(0, 0, 50, 60, Color::BLACK);
        let small = c.downscale_to_width(50);
        assert_eq!(small.width(), 50);
        assert_eq!(small.height(), 30);
        // Left half black, right half white (away from the seam).
        assert_eq!(small.get(10, 15), Color::BLACK);
        assert_eq!(small.get(40, 15), Color::WHITE);
    }

    #[test]
    fn downscale_averages() {
        // Checkerboard of black/white downsampled 2x → mid gray.
        let mut c = Canvas::new(4, 4, Color::WHITE);
        for y in 0..4 {
            for x in 0..4 {
                if (x + y) % 2 == 0 {
                    c.set(x, y, Color::BLACK);
                }
            }
        }
        let small = c.downscale_to_width(2);
        let p = small.get(0, 0);
        assert!((p.r as i32 - 127).abs() <= 16, "got {p:?}");
    }

    #[test]
    fn quantize_reduces_palette() {
        let mut c = Canvas::new(16, 16, Color::WHITE);
        for y in 0..16 {
            for x in 0..16 {
                c.set(x, y, Color::rgb((x * 16) as u8, (y * 16) as u8, 128));
            }
        }
        let before = c.distinct_colors();
        c.quantize(4);
        let after = c.distinct_colors();
        assert!(after < before);
        assert!(after <= 16); // at most 4x4 combinations for varying r,g
    }

    #[test]
    fn quantize_extremes_preserved() {
        let mut c = Canvas::new(2, 1, Color::WHITE);
        c.set(1, 0, Color::BLACK);
        c.quantize(2);
        assert_eq!(c.get(0, 0), Color::WHITE);
        assert_eq!(c.get(1, 0), Color::BLACK);
    }

    #[test]
    fn crop_extracts_region() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.set(5, 5, Color::BLACK);
        let cropped = c.crop(&Rect::new(4.0, 4.0, 3.0, 3.0));
        assert_eq!(cropped.width(), 3);
        assert_eq!(cropped.get(1, 1), Color::BLACK);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn crop_outside_panics() {
        let c = Canvas::new(4, 4, Color::WHITE);
        let _ = c.crop(&Rect::new(100.0, 100.0, 5.0, 5.0));
    }

    #[test]
    fn placeholder_draws_frame() {
        let mut c = Canvas::new(20, 20, Color::WHITE);
        c.draw_placeholder(
            &Rect::new(2.0, 2.0, 16.0, 16.0),
            Color::BLACK,
            Color::rgb(230, 230, 230),
        );
        assert_eq!(c.get(2, 2), Color::BLACK);
        assert_eq!(c.get(10, 5), Color::rgb(230, 230, 230));
    }
}
