//! A bounds-checked little-endian cursor over bytes nobody vouches for:
//! a frame off the cluster fabric, a snapshot about to be restored.

/// Reads little-endian fields off the front of a byte slice. Every read
/// returns `None`, consuming nothing, when fewer bytes remain than it
/// needs, so a decoder is a chain of `?` that cannot panic or over-read.
///
/// # Examples
///
/// ```
/// use apiary_sim::Reader;
///
/// let mut r = Reader::new(&[7, 0, 2, 0, 0, 0, b'o', b'k']);
/// assert_eq!(r.u16(), Some(7));
/// let len = r.u32().unwrap() as usize;
/// assert_eq!(r.bytes(len), Some(&b"ok"[..]));
/// assert!(r.is_empty());
/// assert_eq!(r.u8(), None);
/// ```
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader(buf)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    /// The next two bytes as a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }

    /// The next four bytes as a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    /// The next eight bytes as a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    /// The bytes not read yet, for a decoder of its own to take over.
    #[inline]
    pub fn rest(self) -> &'a [u8] {
        self.0
    }

    /// Whether every byte has been read: a decoder that ends anywhere else
    /// was handed trailing bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_read_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
        assert_eq!(r.bytes(4), None);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.u16(), None);
        assert_eq!(r.u8(), Some(3));
        assert!(r.is_empty());
        assert_eq!(r.bytes(0), Some(&[][..]));
    }
}
