//! FNV-1a, the workspace's one dependency-free byte hash.
//!
//! It checksums the `.xfj` journal records, the campaign-server frames and
//! the class-cache trailer, names the server's cache files, and folds the
//! fuzz campaign digest. None of these needs collision resistance against
//! an adversary, only cheap detection of accidental corruption.

/// The 64-bit FNV offset basis: the hash of the empty input.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into a running hash `h`: `fold(fnv1a(a), b)` equals
/// `fnv1a` of `a` followed by `b`.
#[inline]
#[must_use]
pub fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a 64 of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
