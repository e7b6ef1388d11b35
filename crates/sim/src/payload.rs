//! Shared, immutable payload buffers for the zero-copy message path.
//!
//! Every layer of the stack used to own its bytes: the monitor cloned the
//! payload out of the outbox to inject it, the ARQ cloned it into the
//! unacked ring *and* into each (re)transmitted packet, the fabric cloned
//! it from the egress backlog into the ARQ window. [`Payload`] replaces
//! those copies with a reference-counted handle: cloning is an `Arc`
//! bump, and the bytes themselves are written exactly once, by whoever
//! built the `Vec<u8>`.
//!
//! Ownership rules:
//!
//! - A `Payload` is **immutable**. Producers build a `Vec<u8>` and convert
//!   it (`Vec<u8>: Into<Payload>`, zero-copy); consumers read through
//!   `Deref<Target = [u8]>`.
//! - A payload is a **view**: a shared buffer plus the range of it the
//!   payload covers. [`Payload::slice`] cuts a field out of a frame
//!   without copying it (the cluster hands an invocation's bytes on as a
//!   view of the fabric frame they arrived in), and the view keeps the
//!   whole frame alive. Views compare, hash and print by their bytes.
//! - [`Payload::to_vec`] is the explicit escape hatch back to owned bytes
//!   (it copies); [`Payload::make_mut`] gives in-place mutation with
//!   copy-on-write semantics for the rare test that patches a byte (a
//!   view of part of a buffer is copied first, exactly the view).
//! - Cost-model invariance: a `Payload` has the same `len()` as the
//!   `Vec<u8>` it came from, and a view the length of its range, so
//!   wire-byte accounting (NoC flit counts, frame serialisation, ARQ
//!   deadlines) is unchanged by construction.
//! - An empty payload holds no buffer: [`Payload::empty`] (and every empty
//!   `Vec<u8>` converted, and every empty view) allocates nothing.

use std::borrow::Borrow;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply clonable, immutable view of a shared byte buffer (see module
/// docs).
///
/// # Examples
///
/// ```
/// use apiary_sim::Payload;
///
/// let p: Payload = vec![1u8, 2, 3].into();
/// let q = p.clone(); // refcount bump, no copy
/// assert_eq!(&p[..], &[1, 2, 3]);
/// assert_eq!(p, q);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.slice(1..3), [2u8, 3]); // a view, no copy
/// ```
#[derive(Clone, Default)]
pub struct Payload {
    /// `None` for the empty payload, so making or cloning one allocates
    /// nothing.
    buf: Option<Arc<Vec<u8>>>,
    /// The view, `buf[start..end]`; `0..0` without a buffer.
    start: u32,
    end: u32,
}

impl Payload {
    /// An empty payload; allocation-free.
    pub const fn empty() -> Payload {
        Payload {
            buf: None,
            start: 0,
            end: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.start as usize..self.end as usize],
            None => &[],
        }
    }

    /// The bytes at `range` of this payload, sharing its buffer: no copy,
    /// and an empty range holds no buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        let _in_bounds = &self.as_slice()[range.clone()];
        if range.is_empty() {
            return Payload::empty();
        }
        Payload {
            buf: self.buf.clone(),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// Copies the bytes back into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Mutable access to the bytes with copy-on-write semantics: the sole
    /// owner of a whole buffer mutates in place; a shared buffer, or a
    /// view of part of one, is first copied (exactly the view's bytes).
    pub fn make_mut(&mut self) -> &mut [u8] {
        let Some(buf) = &mut self.buf else {
            return &mut [];
        };
        let (start, end) = (self.start as usize, self.end as usize);
        if (start, end) != (0, buf.len()) {
            *buf = Arc::new(buf[start..end].to_vec());
            (self.start, self.end) = (0, (end - start) as u32);
        }
        Arc::make_mut(buf).as_mut_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// # Panics
    ///
    /// Panics on 4 GiB or more: a view's range is two `u32`s.
    fn from(v: Vec<u8>) -> Payload {
        if v.is_empty() {
            return Payload::empty();
        }
        let end = u32::try_from(v.len()).expect("a payload is under 4 GiB");
        Payload {
            buf: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        v.to_vec().into()
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Payload {
        v.to_vec().into()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Payload {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        // Pointer equality first: clones of the same view are common.
        let shared = match (&self.buf, &other.buf) {
            (Some(a), Some(b)) => {
                Arc::ptr_eq(a, b) && (self.start, self.end) == (other.start, other.end)
            }
            _ => false,
        };
        shared || self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<Payload> for [u8; N] {
    fn eq(&self, other: &Payload) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<Payload> for &[u8; N] {
    fn eq(&self, other: &Payload) -> bool {
        *self == other.as_slice()
    }
}

impl core::fmt::Debug for Payload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether two payloads hold the same buffer.
    fn shares(p: &Payload, q: &Payload) -> bool {
        match (&p.buf, &q.buf) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn clone_shares_the_buffer() {
        let p: Payload = vec![1, 2, 3].into();
        let q = p.clone();
        assert!(shares(&p, &q), "a non-empty payload holds a buffer");
        assert_eq!(p, q);
    }

    #[test]
    fn empty_payloads_hold_no_buffer() {
        let whole: Payload = vec![1, 2].into();
        for p in [
            Payload::empty(),
            Vec::new().into(),
            (&[][..]).into(),
            whole.slice(1..1),
        ] {
            assert!(p.buf.is_none());
            assert!(p.is_empty());
            assert_eq!(p, Payload::empty());
            assert_eq!(p, Vec::<u8>::new());
        }
        let mut p = Payload::empty();
        assert!(p.make_mut().is_empty());
        assert!(p.buf.is_none(), "patching nothing allocates nothing");
    }

    #[test]
    fn deref_and_comparisons() {
        let p: Payload = vec![5u8; 4].into();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p[0], 5);
        assert_eq!(p, vec![5u8; 4]);
        assert_eq!(vec![5u8; 4], p);
        assert_eq!(p, [5u8; 4]);
        assert_eq!(&p[..], &[5u8, 5, 5, 5]);
        assert_eq!(p.to_vec(), vec![5u8; 4]);
        assert_ne!(p, Payload::empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut p: Payload = vec![0u8; 3].into();
        let q = p.clone();
        p.make_mut()[0] = 9;
        assert_eq!(p[0], 9, "owner sees the write");
        assert_eq!(q[0], 0, "shared clone is untouched");
        let sole = p.buf.as_ref().map(Arc::as_ptr);
        p.make_mut()[1] = 8;
        assert_eq!(
            p.buf.as_ref().map(Arc::as_ptr),
            sole,
            "a sole owner writes in place"
        );
        assert_eq!(p, [9u8, 8, 0]);
    }

    #[test]
    fn a_view_shares_its_frame_and_a_clone_shares_the_view() {
        let frame: Payload = (0u8..10).collect::<Vec<_>>().into();
        let view = frame.slice(3..7);
        assert!(shares(&frame, &view), "a view copies nothing");
        assert_eq!(view, [3u8, 4, 5, 6]);
        let copy = view.clone();
        assert!(shares(&view, &copy));
        assert_eq!(copy, view);
        // A view of a view is a view of the frame.
        let inner = view.slice(1..3);
        assert!(shares(&frame, &inner));
        assert_eq!(inner, [4u8, 5]);
    }

    #[test]
    fn len_is_the_views_length() {
        let frame: Payload = vec![7u8; 64].into();
        for (a, b) in [(0, 64), (0, 1), (5, 9), (63, 64), (10, 10)] {
            let view = frame.slice(a..b);
            assert_eq!(view.len(), b - a, "{a}..{b}");
            assert_eq!(view.as_slice().len(), b - a);
            assert_eq!(view.is_empty(), a == b);
        }
    }

    #[test]
    fn views_compare_and_hash_by_their_bytes() {
        use std::hash::{BuildHasher, RandomState};
        let frame: Payload = vec![1u8, 2, 1, 2, 3].into();
        let (a, b, c) = (frame.slice(0..2), frame.slice(2..4), frame.slice(1..3));
        assert_eq!(a, b, "equal bytes from different ranges");
        assert_ne!(a, c);
        let owned: Payload = vec![1u8, 2].into();
        assert_eq!(a, owned, "a view equals an owned payload of its bytes");
        let h = RandomState::new();
        assert_eq!(h.hash_one(&a), h.hash_one(&b));
        assert_eq!(format!("{a:?}"), "[1, 2]");
    }

    #[test]
    fn make_mut_on_a_view_copies_exactly_the_view() {
        let frame: Payload = (0u8..8).collect::<Vec<_>>().into();
        let mut view = frame.slice(2..5);
        view.make_mut()[0] = 99;
        assert_eq!(view, [99u8, 3, 4]);
        assert_eq!(
            frame,
            (0u8..8).collect::<Vec<_>>(),
            "the frame is untouched"
        );
        let buf = view.buf.as_ref().expect("a non-empty view holds a buffer");
        assert_eq!(buf.len(), 3, "only the view's bytes were copied");
        assert!(!shares(&frame, &view));
        // A sole owner's partial view is copied too: the rest of its buffer
        // is not the view's to keep.
        let mut tail = Payload::from(vec![1u8, 2, 3]).slice(1..3);
        tail.make_mut()[1] = 0;
        assert_eq!(tail, [2u8, 0]);
        assert_eq!(tail.buf.as_ref().map(|b| b.len()), Some(2));
    }

    #[test]
    #[should_panic]
    fn a_slice_past_the_view_panics() {
        let frame: Payload = vec![0u8; 8].into();
        let _ = frame.slice(2..4).slice(1..3);
    }
}
