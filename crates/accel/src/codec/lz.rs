//! An LZ77-style sliding-window compressor.
//!
//! This is the "third-party compression accelerator" of §2: a standalone,
//! reusable block that the video pipeline composes with. The format is a
//! token stream:
//!
//! - `0x00, len, bytes...` — literal run (`1..=255` bytes),
//! - `0x01, dist_lo, dist_hi, len` — match of `len` (`4..=255`) bytes at
//!   `dist` (`1..=65535`) bytes back.
//!
//! Matching uses a 3-byte hash table over a 64 KiB window — greedy, single
//! pass, exactly the shape a streaming hardware implementation takes.

use apiary_sim::Reader;
use core::fmt;

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The token stream is malformed.
    Corrupt,
}

impl fmt::Display for LzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LzError::Corrupt => write!(f, "corrupt LZ stream"),
        }
    }
}

impl std::error::Error for LzError {}

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const WINDOW: usize = 65_535;
const HASH_BITS: u32 = 13;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(255);
            out.push(0x00);
            out.push(n as u8);
            out.extend_from_slice(&data[s..s + n]);
            s += n;
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash3(data, i);
        let cand = head[h];
        head[h] = i;
        let mut matched = 0usize;
        if cand != usize::MAX && i - cand <= WINDOW {
            let max = (data.len() - i).min(MAX_MATCH);
            while matched < max && data[cand + matched] == data[i + matched] {
                matched += 1;
            }
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i, data);
            let dist = (i - cand) as u16;
            out.push(0x01);
            out.extend_from_slice(&dist.to_le_bytes());
            out.push(matched as u8);
            // Index the skipped positions sparsely (every other byte) to
            // keep the single-pass cost low, as a hardware matcher would.
            let end = i + matched;
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < end {
                head[hash3(data, j)] = j;
                j += 2;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len(), data);
    out
}

/// Decompresses a token stream.
///
/// # Errors
///
/// [`LzError::Corrupt`] on malformed input (bad opcode, zero-length run,
/// out-of-range back-reference, truncation).
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(stream.len() * 2);
    let mut i = 0usize;
    while i < stream.len() {
        match stream[i] {
            0x00 => {
                if i + 1 >= stream.len() {
                    return Err(LzError::Corrupt);
                }
                let n = stream[i + 1] as usize;
                if n == 0 || i + 2 + n > stream.len() {
                    return Err(LzError::Corrupt);
                }
                out.extend_from_slice(&stream[i + 2..i + 2 + n]);
                i += 2 + n;
            }
            0x01 => {
                let mut r = Reader::new(&stream[i + 1..]);
                let (Some(dist), Some(len)) = (r.u16(), r.u8()) else {
                    return Err(LzError::Corrupt);
                };
                let (dist, len) = (dist as usize, len as usize);
                if dist == 0 || len < MIN_MATCH || dist > out.len() {
                    return Err(LzError::Corrupt);
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (and common for runs).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            _ => return Err(LzError::Corrupt),
        }
    }
    Ok(out)
}

/// Compression cost model: a streaming matcher does ~1 byte/cycle plus
/// hash-table setup.
pub fn compress_cost_cycles(bytes: usize) -> u64 {
    64 + bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("well formed");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data: Vec<u8> = b"hello world ".repeat(500).to_vec();
        let c = compress(&data);
        assert!(c.len() < data.len() / 5, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).expect("well formed"), data);
    }

    #[test]
    fn run_of_one_byte() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 200, "{}", c.len());
        assert_eq!(decompress(&c).expect("well formed"), data);
    }

    #[test]
    fn incompressible_input_roundtrips() {
        // A linear-congruential byte stream has few 4-byte repeats.
        let mut x = 12345u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn structured_text_roundtrips() {
        let data = b"the quick brown fox jumps over the lazy dog; \
                     the quick brown fox jumps over the lazy dog again"
            .repeat(40);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert_eq!(decompress(&[0x02]), Err(LzError::Corrupt));
        assert_eq!(decompress(&[0x00]), Err(LzError::Corrupt));
        assert_eq!(decompress(&[0x00, 0]), Err(LzError::Corrupt));
        assert_eq!(decompress(&[0x00, 5, 1, 2]), Err(LzError::Corrupt));
        // Back-reference beyond the start of output.
        assert_eq!(decompress(&[0x01, 9, 0, 8]), Err(LzError::Corrupt));
        // Match length below MIN_MATCH.
        assert_eq!(
            decompress(&[0x00, 4, 1, 2, 3, 4, 0x01, 2, 0, 2]),
            Err(LzError::Corrupt)
        );
    }

    #[test]
    fn overlapping_match_decodes() {
        // Literal "ab", then a match of length 6 at distance 2 = "ababab".
        let stream = [0x00, 2, b'a', b'b', 0x01, 2, 0, 6];
        assert_eq!(decompress(&stream).expect("well formed"), b"abababab");
    }

    #[test]
    fn cost_scales() {
        assert!(compress_cost_cycles(10_000) > compress_cost_cycles(10));
    }
}
