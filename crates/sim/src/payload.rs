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
//! - [`Payload::to_vec`] is the explicit escape hatch back to owned bytes
//!   (it copies); [`Payload::make_mut`] gives in-place mutation with
//!   copy-on-write semantics for the rare test that patches a byte.
//! - Cost-model invariance: a `Payload` has the same `len()` as the
//!   `Vec<u8>` it came from, so wire-byte accounting (NoC flit counts,
//!   frame serialisation, ARQ deadlines) is unchanged by construction.
//! - An empty payload holds no buffer: [`Payload::empty`] (and every empty
//!   `Vec<u8>` converted) allocates nothing.

use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer (see module docs).
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
/// ```
#[derive(Clone, Default)]
pub struct Payload(
    /// `None` for the empty payload, so making or cloning one allocates
    /// nothing.
    Option<Arc<Vec<u8>>>,
);

impl Payload {
    /// An empty payload; allocation-free.
    pub const fn empty() -> Payload {
        Payload(None)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The bytes as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Copies the bytes back into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Mutable access with copy-on-write semantics: sole owners mutate in
    /// place, shared handles get a private copy first.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(self.0.get_or_insert_with(Arc::default))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload((!v.is_empty()).then(|| Arc::new(v)))
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
        // Pointer equality first: clones of the same buffer are common.
        let shared = match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
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

    #[test]
    fn clone_shares_the_buffer() {
        let p: Payload = vec![1, 2, 3].into();
        let q = p.clone();
        let (Some(a), Some(b)) = (&p.0, &q.0) else {
            panic!("a non-empty payload holds a buffer")
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(p, q);
    }

    #[test]
    fn empty_payloads_hold_no_buffer() {
        for p in [Payload::empty(), Vec::new().into(), (&[][..]).into()] {
            assert!(p.0.is_none());
            assert!(p.is_empty());
            assert_eq!(p, Payload::empty());
            assert_eq!(p, Vec::<u8>::new());
        }
        let mut p = Payload::empty();
        p.make_mut().push(4);
        assert_eq!(p, [4u8]);
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
    }
}
