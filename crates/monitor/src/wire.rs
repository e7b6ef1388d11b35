//! The Apiary wire protocol: message `kind` words and error codes.
//!
//! These constants give meaning to [`apiary_noc::Message::kind`]. They live
//! here because the monitor must mint some of them itself (error replies on
//! behalf of fail-stopped tiles); the kernel and services build on the same
//! vocabulary.

/// Application-defined request (the common case for accelerator traffic).
pub const KIND_REQUEST: u16 = 0x0001;
/// Application-defined response.
pub const KIND_RESPONSE: u16 = 0x0002;
/// Memory read request (to a memory-service tile). The monitor has already
/// bounds-checked and translated the address.
pub const KIND_MEM_READ: u16 = 0x0010;
/// Memory write request.
pub const KIND_MEM_WRITE: u16 = 0x0011;
/// Memory operation completion (data for reads, ack for writes).
pub const KIND_MEM_REPLY: u16 = 0x0012;
/// Memory allocation request (to the memory service's control plane).
pub const KIND_MEM_ALLOC: u16 = 0x0013;
/// Memory release request.
pub const KIND_MEM_FREE: u16 = 0x0014;
/// Network service: transmit a frame to the external network.
pub const KIND_NET_TX: u16 = 0x0030;
/// Network service: a frame arrived from the external network.
pub const KIND_NET_RX: u16 = 0x0031;
/// Error reply minted by a monitor or service.
pub const KIND_ERROR: u16 = 0x00FF;

/// Error codes carried in the first payload byte of a [`KIND_ERROR`] reply.
pub mod err {
    /// The destination tile fail-stopped (§4.4's defined error behaviour).
    pub const TARGET_FAILED: u8 = 1;
    /// The destination rejected the message (no matching handler).
    pub const REJECTED: u8 = 2;
    /// A memory operation failed its bounds/rights check.
    pub const MEM_FAULT: u8 = 3;
    /// A service lookup failed.
    pub const NO_SUCH_SERVICE: u8 = 4;
    /// The destination's queues overflowed.
    pub const OVERLOAD: u8 = 5;
}

/// Renders a kind word for traces.
pub fn kind_name(kind: u16) -> &'static str {
    match kind {
        KIND_REQUEST => "request",
        KIND_RESPONSE => "response",
        KIND_MEM_READ => "mem-read",
        KIND_MEM_WRITE => "mem-write",
        KIND_MEM_REPLY => "mem-reply",
        KIND_MEM_ALLOC => "mem-alloc",
        KIND_MEM_FREE => "mem-free",
        KIND_NET_TX => "net-tx",
        KIND_NET_RX => "net-rx",
        KIND_ERROR => "error",
        _ => "user",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            KIND_REQUEST,
            KIND_RESPONSE,
            KIND_MEM_READ,
            KIND_MEM_WRITE,
            KIND_MEM_REPLY,
            KIND_MEM_ALLOC,
            KIND_MEM_FREE,
            KIND_NET_TX,
            KIND_NET_RX,
            KIND_ERROR,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_resolve() {
        assert_eq!(kind_name(KIND_MEM_READ), "mem-read");
        assert_eq!(kind_name(0x7777), "user");
    }
}
