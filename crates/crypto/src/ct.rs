//! Constant-time helpers.
//!
//! Authentication-tag comparison must not leak how many prefix bytes matched,
//! otherwise an attacker interacting with the KeyService or SeMIRT enclaves
//! could forge tags byte by byte.  These helpers avoid data-dependent early
//! exits; the compiler is discouraged from re-introducing them by folding the
//! result through a volatile-free but opaque accumulation.

/// Compares two byte slices in constant time with respect to their contents.
///
/// Returns `false` immediately if the lengths differ (length is considered
/// public information for all uses in this workspace: tags and digests have
/// fixed, well-known sizes).
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // Map 0 -> true, nonzero -> false without a data-dependent branch on the
    // individual bytes.
    diff_is_zero(diff)
}

/// Constant-time selection between two bytes: returns `a` if `choice` is 1,
/// `b` if `choice` is 0.  `choice` must be 0 or 1.
#[must_use]
pub fn ct_select_u8(choice: u8, a: u8, b: u8) -> u8 {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg(); // 0x00 or 0xFF
    (a & mask) | (b & !mask)
}

/// Constant-time conditional swap of two arrays of five 64-bit limbs: the
/// X25519 Montgomery ladder's swap of field elements.
pub fn ct_swap_u64x5(choice: u64, a: &mut [u64; 5], b: &mut [u64; 5]) {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg();
    for i in 0..5 {
        let t = mask & (a[i] ^ b[i]);
        a[i] ^= t;
        b[i] ^= t;
    }
}

#[inline]
fn diff_is_zero(diff: u8) -> bool {
    // (diff | diff.wrapping_neg()) has its MSB set iff diff != 0.
    let is_nonzero = ((diff as u16 | (diff as u16).wrapping_neg()) >> 8) & 1;
    is_nonzero == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_slices_compare_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(&[0u8; 32], &[0u8; 32]));
    }

    #[test]
    fn different_slices_compare_unequal() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(&[0u8; 16], &[1u8; 16]));
    }

    #[test]
    fn select_picks_correct_value() {
        assert_eq!(ct_select_u8(1, 0xAA, 0x55), 0xAA);
        assert_eq!(ct_select_u8(0, 0xAA, 0x55), 0x55);
    }

    #[test]
    fn swap_behaves_like_conditional_swap() {
        let mut a = [1, 2, 3, 4, 5];
        let mut b = [6, 7, 8, 9, 10];
        ct_swap_u64x5(0, &mut a, &mut b);
        assert_eq!(a, [1, 2, 3, 4, 5]);
        ct_swap_u64x5(1, &mut a, &mut b);
        assert_eq!(a, [6, 7, 8, 9, 10]);
        assert_eq!(b, [1, 2, 3, 4, 5]);
    }

    proptest! {
        #[test]
        fn ct_eq_matches_slice_eq(a: Vec<u8>, b: Vec<u8>) {
            prop_assert_eq!(ct_eq(&a, &b), a == b);
        }

        #[test]
        fn ct_eq_is_reflexive(a: Vec<u8>) {
            prop_assert!(ct_eq(&a, &a));
        }
    }
}
