//! Application identity (§4.1–§4.2).

use core::fmt;

/// An application: one or more cooperating processes (accelerators) under a
/// single trust domain. Distinct applications are mutually distrusting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// The OS's own pseudo-application, owning service tiles (memory, network).
/// Services are trusted infrastructure; every application may be connected
/// to them.
pub const OS_APP: AppId = AppId(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_semantics() {
        assert_eq!(AppId(3), AppId(3));
        assert_ne!(AppId(3), AppId(4));
        assert_eq!(format!("{}", AppId(2)), "app2");
    }
}
