//! A simple intra-frame video codec: per-row delta prediction, optional
//! quantisation, and run-length entropy coding.
//!
//! The point is not compression ratio; it is that the encoding service in
//! the §2 pipeline performs a real, verifiable transformation with a
//! data-dependent output size and a plausible cycles-per-pixel cost.
//!
//! Frame format: `width * height` bytes of 8-bit luma samples.
//! Stream format: a 12-byte header (`width: u32, height: u32,
//! quant_shift: u32`) followed by RLE tokens over the quantised deltas:
//!
//! - `0x00, n, v` — run of `n` copies of `v` (n >= 1),
//! - `0x01, n, v0..v{n-1}` — literal run of `n` bytes.

use apiary_sim::Reader;
use core::fmt;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VideoError {
    /// Frame dimensions do not match the pixel count.
    BadDimensions,
    /// The encoded stream is malformed.
    Corrupt,
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::BadDimensions => write!(f, "dimensions do not match pixel data"),
            VideoError::Corrupt => write!(f, "corrupt video stream"),
        }
    }
}

impl std::error::Error for VideoError {}

/// A raw frame of 8-bit samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Pixels per row.
    pub width: u32,
    /// Rows.
    pub height: u32,
    /// Row-major samples, `width * height` of them.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// Creates a frame, validating dimensions.
    ///
    /// # Errors
    ///
    /// [`VideoError::BadDimensions`] if `pixels.len() != width * height`.
    pub fn new(width: u32, height: u32, pixels: Vec<u8>) -> Result<Frame, VideoError> {
        if pixels.len() != (width as usize) * (height as usize) {
            return Err(VideoError::BadDimensions);
        }
        Ok(Frame {
            width,
            height,
            pixels,
        })
    }

    /// A synthetic test-pattern frame (smooth gradient plus moving block),
    /// deterministic in `seed`.
    pub fn test_pattern(width: u32, height: u32, seed: u64) -> Frame {
        let mut pixels = Vec::with_capacity((width * height) as usize);
        let bx = (seed % width.max(1) as u64) as u32;
        let by = (seed / 7 % height.max(1) as u64) as u32;
        for y in 0..height {
            for x in 0..width {
                let grad = ((x / 2 + y / 3) & 0xff) as u8;
                let block = if x.abs_diff(bx) < 8 && y.abs_diff(by) < 8 {
                    128
                } else {
                    0
                };
                pixels.push(grad.wrapping_add(block));
            }
        }
        Frame {
            width,
            height,
            pixels,
        }
    }
}

fn delta_encode(frame: &Frame, quant_shift: u32) -> Vec<u8> {
    let w = frame.width as usize;
    let mut out = Vec::with_capacity(frame.pixels.len());
    for row in frame.pixels.chunks(w.max(1)) {
        let mut prev = 0u8;
        for &p in row {
            let q = p >> quant_shift;
            out.push(q.wrapping_sub(prev));
            prev = q;
        }
    }
    out
}

fn delta_decode(deltas: &[u8], width: u32, quant_shift: u32) -> Vec<u8> {
    let w = width as usize;
    let mut out = Vec::with_capacity(deltas.len());
    for row in deltas.chunks(w.max(1)) {
        let mut prev = 0u8;
        for &d in row {
            let q = prev.wrapping_add(d);
            out.push(q << quant_shift);
            prev = q;
        }
    }
    out
}

fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let v = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == v && run < 255 {
            run += 1;
        }
        if run >= 3 {
            out.extend_from_slice(&[0x00, run as u8, v]);
            i += run;
        } else {
            // Collect a literal run up to the next >=3 run or 255 bytes.
            let start = i;
            let mut j = i;
            while j < data.len() && j - start < 255 {
                let v = data[j];
                let mut r = 1;
                while j + r < data.len() && data[j + r] == v && r < 3 {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                j += 1;
            }
            let lit = &data[start..j];
            out.push(0x01);
            out.push(lit.len() as u8);
            out.extend_from_slice(lit);
            i = j;
        }
    }
    out
}

fn rle_decode(data: &[u8]) -> Result<Vec<u8>, VideoError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        match data[i] {
            0x00 => {
                if i + 2 >= data.len() {
                    return Err(VideoError::Corrupt);
                }
                let n = data[i + 1] as usize;
                let v = data[i + 2];
                if n == 0 {
                    return Err(VideoError::Corrupt);
                }
                out.extend(std::iter::repeat_n(v, n));
                i += 3;
            }
            0x01 => {
                if i + 1 >= data.len() {
                    return Err(VideoError::Corrupt);
                }
                let n = data[i + 1] as usize;
                if n == 0 || i + 2 + n > data.len() {
                    return Err(VideoError::Corrupt);
                }
                out.extend_from_slice(&data[i + 2..i + 2 + n]);
                i += 2 + n;
            }
            _ => return Err(VideoError::Corrupt),
        }
    }
    Ok(out)
}

/// Encodes a frame. With `quant_shift == 0` the codec is lossless; larger
/// shifts trade fidelity for size exactly like a real quantiser.
pub fn encode(frame: &Frame, quant_shift: u32) -> Vec<u8> {
    let quant_shift = quant_shift.min(7);
    let mut out = Vec::new();
    out.extend_from_slice(&frame.width.to_le_bytes());
    out.extend_from_slice(&frame.height.to_le_bytes());
    out.extend_from_slice(&quant_shift.to_le_bytes());
    out.extend_from_slice(&rle_encode(&delta_encode(frame, quant_shift)));
    out
}

/// Decodes a stream back into a frame.
///
/// # Errors
///
/// [`VideoError::Corrupt`] on malformed streams.
pub fn decode(stream: &[u8]) -> Result<Frame, VideoError> {
    let mut r = Reader::new(stream);
    let (Some(width), Some(height), Some(quant_shift)) = (r.u32(), r.u32(), r.u32()) else {
        return Err(VideoError::Corrupt);
    };
    if quant_shift > 7 {
        return Err(VideoError::Corrupt);
    }
    let deltas = rle_decode(r.rest())?;
    if deltas.len() != (width as usize) * (height as usize) {
        return Err(VideoError::Corrupt);
    }
    let pixels = delta_decode(&deltas, width, quant_shift);
    Frame::new(width, height, pixels)
}

/// The encoder's cost model: cycles to encode a frame of `n` pixels.
/// A pipelined hardware encoder sustains ~1 pixel/cycle plus setup.
pub fn encode_cost_cycles(pixels: usize) -> u64 {
    32 + pixels as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_roundtrip_test_pattern() {
        for seed in 0..8 {
            let f = Frame::test_pattern(64, 48, seed);
            let enc = encode(&f, 0);
            let dec = decode(&enc).expect("well formed");
            assert_eq!(dec, f, "seed {seed}");
        }
    }

    #[test]
    fn quantisation_is_bounded_loss() {
        let f = Frame::test_pattern(32, 32, 3);
        let enc = encode(&f, 2);
        let dec = decode(&enc).expect("well formed");
        for (a, b) in f.pixels.iter().zip(dec.pixels.iter()) {
            assert!((*a as i16 - *b as i16).unsigned_abs() < 4);
        }
    }

    #[test]
    fn smooth_content_compresses() {
        // A flat frame should shrink dramatically under delta+RLE.
        let f = Frame::new(64, 64, vec![77; 64 * 64]).expect("sized");
        let enc = encode(&f, 0);
        assert!(enc.len() < f.pixels.len() / 10, "{} bytes", enc.len());
    }

    #[test]
    fn adversarial_content_still_roundtrips() {
        // Worst case for RLE: no runs at all.
        let pixels: Vec<u8> = (0..4096u32).map(|i| (i * 97 % 251) as u8).collect();
        let f = Frame::new(64, 64, pixels).expect("sized");
        let dec = decode(&encode(&f, 0)).expect("well formed");
        assert_eq!(dec, f);
    }

    #[test]
    fn bad_dimensions_rejected() {
        assert_eq!(
            Frame::new(10, 10, vec![0; 99]),
            Err(VideoError::BadDimensions)
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let f = Frame::test_pattern(16, 16, 0);
        let enc = encode(&f, 0);
        assert_eq!(decode(&enc[..8]), Err(VideoError::Corrupt));
        assert_eq!(decode(&enc[..enc.len() - 1]), Err(VideoError::Corrupt));
    }

    #[test]
    fn garbage_stream_rejected() {
        assert!(decode(&[0xFF; 64]).is_err());
    }

    #[test]
    fn empty_frame_roundtrips() {
        let f = Frame::new(0, 0, vec![]).expect("sized");
        let dec = decode(&encode(&f, 0)).expect("well formed");
        assert_eq!(dec, f);
    }

    #[test]
    fn cost_scales_with_pixels() {
        assert!(encode_cost_cycles(10_000) > encode_cost_cycles(100));
    }
}
