//! Error type for PM simulator operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the PM simulator.
///
/// All fallible pool and context operations return `Result<_, PmError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PmError {
    /// An access fell (partly) outside the pool's address range.
    OutOfBounds {
        /// Start address of the attempted access.
        addr: u64,
        /// Length of the attempted access.
        size: u64,
        /// Pool base address.
        base: u64,
        /// Pool length in bytes.
        len: u64,
    },
    /// A pool was created with a zero or non-line-multiple size.
    BadPoolSize {
        /// The rejected size.
        size: u64,
    },
    /// A pool base address was not cache-line aligned.
    BadBaseAlignment {
        /// The rejected base address.
        base: u64,
    },
    /// An access size of zero bytes was requested.
    ZeroSize {
        /// The access address.
        addr: u64,
    },
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PmError::OutOfBounds {
                addr,
                size,
                base,
                len,
            } => write!(
                f,
                "access {addr:#x}+{size} outside pool [{base:#x}, {:#x})",
                base + len
            ),
            PmError::BadPoolSize { size } => {
                write!(f, "pool size {size} is not a positive multiple of 64")
            }
            PmError::BadBaseAlignment { base } => {
                write!(f, "pool base {base:#x} is not cache-line aligned")
            }
            PmError::ZeroSize { addr } => write!(f, "zero-sized access at {addr:#x}"),
        }
    }
}

impl Error for PmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = PmError::OutOfBounds {
            addr: 0x100,
            size: 8,
            base: 0,
            len: 0x40,
        };
        let s = e.to_string();
        assert!(s.contains("0x100"), "{s}");
        assert!(s.contains("0x40"), "{s}");
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PmError>();
    }

    #[test]
    fn display_is_lowercase_without_period() {
        let msgs = [
            PmError::BadPoolSize { size: 7 }.to_string(),
            PmError::BadBaseAlignment { base: 3 }.to_string(),
            PmError::ZeroSize { addr: 1 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "{m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
        }
    }
}
