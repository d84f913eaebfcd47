//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! The RA-TLS handshake between clients and the KeyService enclave, and the
//! mutual-attestation channel between KeyService and SeMIRT enclaves, derive
//! their session keys from an X25519 exchange whose public keys are bound to
//! the attestation quotes.
//!
//! Field arithmetic over GF(2^255 - 19) uses five 51-bit limbs with `u128`
//! intermediates (the classic "donna" representation).

use crate::error::CryptoError;
use rand::RngCore;

/// Length of X25519 public keys, secret keys and shared secrets in bytes.
pub const POINT_LEN: usize = 32;

const MASK_51: u64 = (1 << 51) - 1;

/// Field element in GF(2^255 - 19), five 51-bit limbs.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load64 = |b: &[u8]| -> u64 {
            let mut x = [0u8; 8];
            x.copy_from_slice(b);
            u64::from_le_bytes(x)
        };
        let mut limbs = [0u64; 5];
        limbs[0] = load64(&bytes[0..8]) & MASK_51;
        limbs[1] = (load64(&bytes[6..14]) >> 3) & MASK_51;
        limbs[2] = (load64(&bytes[12..20]) >> 6) & MASK_51;
        limbs[3] = (load64(&bytes[19..27]) >> 1) & MASK_51;
        limbs[4] = (load64(&bytes[24..32]) >> 12) & MASK_51;
        Fe(limbs)
    }

    fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_fully();
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut bit_offset = 0usize;
        let mut byte_idx = 0usize;
        for limb in t.0.iter_mut() {
            acc |= (*limb as u128) << bit_offset;
            bit_offset += 51;
            while bit_offset >= 8 {
                out[byte_idx] = (acc & 0xff) as u8;
                acc >>= 8;
                bit_offset -= 8;
                byte_idx += 1;
            }
        }
        if byte_idx < 32 {
            out[byte_idx] = (acc & 0xff) as u8;
        }
        out
    }

    /// Carries limbs so each is below 2^52 (loose reduction).
    fn carry(mut self) -> Fe {
        for _ in 0..2 {
            let mut c;
            c = self.0[0] >> 51;
            self.0[0] &= MASK_51;
            self.0[1] += c;
            c = self.0[1] >> 51;
            self.0[1] &= MASK_51;
            self.0[2] += c;
            c = self.0[2] >> 51;
            self.0[2] &= MASK_51;
            self.0[3] += c;
            c = self.0[3] >> 51;
            self.0[3] &= MASK_51;
            self.0[4] += c;
            c = self.0[4] >> 51;
            self.0[4] &= MASK_51;
            self.0[0] += c * 19;
        }
        self
    }

    /// Fully reduces into canonical form [0, p).
    fn reduce_fully(self) -> Fe {
        let mut t = self.carry();
        // Now limbs < 2^51 (possibly representing a value in [0, 2p)).
        // Conditionally subtract p = 2^255 - 19.
        let mut minus_p = t;
        minus_p.0[0] = minus_p.0[0].wrapping_add(19);
        let mut carry = minus_p.0[0] >> 51;
        minus_p.0[0] &= MASK_51;
        for i in 1..5 {
            minus_p.0[i] = minus_p.0[i].wrapping_add(carry);
            carry = minus_p.0[i] >> 51;
            minus_p.0[i] &= MASK_51;
        }
        // carry is 1 iff t + 19 >= 2^255, i.e. t >= p.
        let select_minus = carry.wrapping_neg(); // all ones if t >= p
        for i in 0..5 {
            t.0[i] = (t.0[i] & !select_minus) | (minus_p.0[i] & select_minus);
        }
        t
    }

    fn add(self, other: Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + other.0[i])).carry()
    }

    fn sub(self, other: Fe) -> Fe {
        // Add 2p before subtracting to stay positive.
        const TWO_P: [u64; 5] = [
            0xfffffffffffda,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + TWO_P[i] - other.0[i];
        }
        Fe(out).carry()
    }

    fn mul(self, other: Fe) -> Fe {
        let a = self.0;
        let b = other.0;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let m = |x: u64, y: u64| -> u128 { x as u128 * y as u128 };

        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    fn square(self) -> Fe {
        self.mul(self)
    }

    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..5 {
            c[i] += carry;
            out[i] = (c[i] as u64) & MASK_51;
            carry = c[i] >> 51;
        }
        out[0] += (carry as u64) * 19;
        Fe(out).carry()
    }

    /// Multiplicative inverse via Fermat's little theorem (x^(p-2)).
    fn invert(self) -> Fe {
        // Exponent p - 2 = 2^255 - 21.  Use a simple square-and-multiply over
        // the fixed exponent bits; this is not performance critical.
        let mut result = Fe::ONE;
        let base = self;
        // p - 2 in little-endian bit order.
        let exponent: [u8; 32] = {
            let mut e = [0xffu8; 32];
            e[0] = 0xeb; // 2^255 - 19 - 2 = ...ffffeb
            e[31] = 0x7f;
            e
        };
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                result = result.square();
                if (exponent[byte_idx] >> bit) & 1 == 1 {
                    result = result.mul(base);
                }
            }
        }
        result
    }

    fn mul_small(self, scalar: u64) -> Fe {
        Fe::carry_wide(std::array::from_fn(|i| {
            u128::from(self.0[i]) * u128::from(scalar)
        }))
    }
}

fn ct_swap(choice: u64, a: &mut Fe, b: &mut Fe) {
    let mask = choice.wrapping_neg();
    for i in 0..5 {
        let t = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= t;
        b.0[i] ^= t;
    }
}

/// Clamps a 32-byte scalar as specified by RFC 7748 §5.
#[must_use]
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// Scalar multiplication: computes `scalar * point` on Curve25519.
#[must_use]
pub fn x25519(scalar: [u8; 32], point: [u8; 32]) -> [u8; 32] {
    let scalar = clamp_scalar(scalar);
    let x1 = Fe::from_bytes(&point);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let bit = ((scalar[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= bit;
        ct_swap(swap, &mut x2, &mut x3);
        ct_swap(swap, &mut z2, &mut z3);
        swap = bit;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }

    ct_swap(swap, &mut x2, &mut x3);
    ct_swap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// The X25519 base point (u = 9).
#[must_use]
pub fn base_point() -> [u8; 32] {
    let mut point = [0u8; 32];
    point[0] = 9;
    point
}

/// An ephemeral X25519 key pair.
#[derive(Clone)]
pub struct EphemeralKeyPair {
    secret: [u8; 32],
    /// Public key (u-coordinate).
    pub public: [u8; 32],
}

impl std::fmt::Debug for EphemeralKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EphemeralKeyPair(public={})",
            &crate::sha256::sha256(self.public).to_hex()[..8]
        )
    }
}

impl EphemeralKeyPair {
    /// Generates a fresh key pair using `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        Self::from_secret(secret)
    }

    /// Builds a key pair from raw secret bytes (clamped internally).
    #[must_use]
    pub fn from_secret(secret: [u8; 32]) -> Self {
        let public = x25519(secret, base_point());
        EphemeralKeyPair { secret, public }
    }

    /// Computes the shared secret with a peer's public key.
    ///
    /// Rejects the all-zero result, per RFC 7748 §6.1, to catch small-order
    /// points contributed by a malicious peer.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> Result<[u8; 32], CryptoError> {
        let shared = x25519(self.secret, *peer_public);
        if shared.iter().all(|&b| b == 0) {
            return Err(CryptoError::WeakSharedSecret);
        }
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(scalar, point);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(scalar, point);
        assert_eq!(
            hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman example.
    #[test]
    fn rfc7748_dh_example() {
        let alice_secret =
            unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_secret =
            unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice = EphemeralKeyPair::from_secret(alice_secret);
        let bob = EphemeralKeyPair::from_secret(bob_secret);
        assert_eq!(
            hex(&alice.public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob.public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = alice.diffie_hellman(&bob.public).unwrap();
        let shared_b = bob.diffie_hellman(&alice.public).unwrap();
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn iterated_scalar_mult_1000_not_needed_but_one_iteration_matches() {
        // RFC 7748 §5.2: after one iteration of k := X25519(k, u) with
        // k = u = 9 we should get the listed value.
        let k = unhex32("0900000000000000000000000000000000000000000000000000000000000000");
        let out = x25519(k, k);
        assert_eq!(
            hex(&out),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    #[test]
    fn all_zero_peer_key_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let pair = EphemeralKeyPair::generate(&mut rng);
        assert!(matches!(
            pair.diffie_hellman(&[0u8; 32]),
            Err(CryptoError::WeakSharedSecret)
        ));
    }

    #[test]
    fn debug_does_not_print_secret() {
        let pair = EphemeralKeyPair::from_secret([0x55; 32]);
        let text = format!("{pair:?}");
        assert!(!text.contains("55555555"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn dh_is_commutative(seed_a: u64, seed_b: u64) {
            let mut rng_a = StdRng::seed_from_u64(seed_a);
            let mut rng_b = StdRng::seed_from_u64(seed_b.wrapping_add(1) | 1);
            let a = EphemeralKeyPair::generate(&mut rng_a);
            let b = EphemeralKeyPair::generate(&mut rng_b);
            let s1 = a.diffie_hellman(&b.public).unwrap();
            let s2 = b.diffie_hellman(&a.public).unwrap();
            prop_assert_eq!(s1, s2);
        }
    }
}
