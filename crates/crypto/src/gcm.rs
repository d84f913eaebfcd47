//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the paper's choice for model and request encryption (§V: "We use
//! AES-GCM for model and request encryption").  The construction is CTR-mode
//! AES-128 with a GHASH tag over the associated data and ciphertext.  GHASH
//! multiplies in GF(2^128) with BearSSL's `ghash_ctmul64` method: integer
//! multiplies on masked operands give a carry-less product with no branch and
//! no table lookup on secret data.

use crate::aead::{Aead, AeadKey, Nonce, TAG_LEN};
use crate::aes::{Aes128, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::error::CryptoError;

/// AES-128-GCM cipher instance.
#[derive(Clone)]
pub struct Aes128Gcm {
    aes: Aes128,
    /// GHASH subkey H = AES_K(0^128).
    h: GhashKey,
}

impl Aes128Gcm {
    /// Creates a GCM instance for `key`.
    #[must_use]
    pub fn new(key: &AeadKey) -> Self {
        let aes = Aes128::new(key.as_bytes());
        let h_block = aes.encrypt_block_copy(&[0u8; BLOCK_LEN]);
        Aes128Gcm {
            aes,
            h: GhashKey::new(u128::from_be_bytes(h_block)),
        }
    }

    fn counter_block(nonce: &Nonce, counter: u32) -> [u8; BLOCK_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        block[..12].copy_from_slice(nonce.as_bytes());
        block[12..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    fn ctr_xor(&self, nonce: &Nonce, data: &mut [u8]) {
        let mut counter = 2u32; // counter 1 is reserved for the tag mask
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let keystream = self
                .aes
                .encrypt_block_copy(&Self::counter_block(nonce, counter));
            match <&mut [u8; BLOCK_LEN]>::try_from(&mut *chunk) {
                Ok(block) => {
                    let x = u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(keystream);
                    *block = x.to_ne_bytes();
                }
                Err(_) => {
                    for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                        *byte ^= ks;
                    }
                }
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let mut y = 0u128;
        for chunk in aad.chunks(BLOCK_LEN) {
            y = self.h.mul(y ^ block_to_u128(chunk));
        }
        for chunk in ciphertext.chunks(BLOCK_LEN) {
            y = self.h.mul(y ^ block_to_u128(chunk));
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        self.h.mul(y ^ lengths)
    }

    fn tag(&self, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mask = self.aes.encrypt_block_copy(&Self::counter_block(nonce, 1));
        (self.ghash(aad, ciphertext) ^ u128::from_be_bytes(mask)).to_be_bytes()
    }
}

impl Aead for Aes128Gcm {
    fn seal(&self, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.ctr_xor(nonce, &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, nonce: &Nonce, ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < TAG_LEN {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let expected = self.tag(nonce, aad, body);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut plaintext = body.to_vec();
        self.ctr_xor(nonce, &mut plaintext);
        Ok(plaintext)
    }
}

/// A whole or final partial block, zero-padded, as a big-endian integer.
fn block_to_u128(chunk: &[u8]) -> u128 {
    if let Ok(block) = <[u8; BLOCK_LEN]>::try_from(chunk) {
        return u128::from_be_bytes(block);
    }
    let mut block = [0u8; BLOCK_LEN];
    block[..chunk.len()].copy_from_slice(chunk);
    u128::from_be_bytes(block)
}

/// The GHASH subkey H split into big-endian 64-bit halves (`h1` high, `h0`
/// low), with their bit reversals and the Karatsuba middle terms
/// precomputed once per key.
#[derive(Clone)]
struct GhashKey {
    h0: u64,
    h1: u64,
    h2: u64,
    h0r: u64,
    h1r: u64,
    h2r: u64,
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let h1 = (h >> 64) as u64;
        let h0 = h as u64;
        let (h0r, h1r) = (h0.reverse_bits(), h1.reverse_bits());
        GhashKey {
            h0,
            h1,
            h2: h0 ^ h1,
            h0r,
            h1r,
            h2r: h0r ^ h1r,
        }
    }

    /// Multiplies `x` by H in GF(2^128) with the GCM polynomial
    /// x^128 + x^7 + x^2 + x + 1, in the bit-reflected convention of
    /// SP 800-38D.
    ///
    /// Karatsuba over three 64×64 carry-less products gives the low halves
    /// of the 128×128 product; the same three products on bit-reversed
    /// operands give the high halves.  The 256-bit result, shifted left by
    /// one for the reflected convention, is then reduced by shifts and XORs.
    fn mul(&self, x: u128) -> u128 {
        let y1 = (x >> 64) as u64;
        let y0 = x as u64;
        let (y0r, y1r) = (y0.reverse_bits(), y1.reverse_bits());
        let (y2, y2r) = (y0 ^ y1, y0r ^ y1r);

        let z0 = bmul64(y0, self.h0);
        let z1 = bmul64(y1, self.h1);
        let z2 = bmul64(y2, self.h2) ^ z0 ^ z1;
        let z0h = bmul64(y0r, self.h0r);
        let z1h = bmul64(y1r, self.h1r);
        let z2h = bmul64(y2r, self.h2r) ^ z0h ^ z1h;
        let z0h = z0h.reverse_bits() >> 1;
        let z1h = z1h.reverse_bits() >> 1;
        let z2h = z2h.reverse_bits() >> 1;

        let mut v0 = z0;
        let mut v1 = z0h ^ z2;
        let mut v2 = z1 ^ z2h;
        let mut v3 = z1h;

        v3 = (v3 << 1) | (v2 >> 63);
        v2 = (v2 << 1) | (v1 >> 63);
        v1 = (v1 << 1) | (v0 >> 63);
        v0 <<= 1;

        v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
        v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
        v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
        v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);

        (u128::from(v3) << 64) | u128::from(v2)
    }
}

/// Low 64 bits of the carry-less product of `x` and `y`.
///
/// Each operand is split into four masks that keep every fourth bit.  In the
/// integer product of two such masks, at most 15 terms meet at one bit
/// position (16 in the top four bits, where the overflow falls off the
/// word), so their sum stays inside its four-bit slot and the slot's low
/// bit is their XOR.  The masks and integer multiplies make no branch or
/// table lookup on either operand.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = 0x2222_2222_2222_2222;
    const M2: u64 = 0x4444_4444_4444_4444;
    const M3: u64 = 0x8888_8888_8888_8888;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// AES-128-GCM with byte-wise CTR, a bit-serial GHASH and the byte-wise
/// reference AES: a test oracle that shares no block or field arithmetic
/// with the code above.
#[cfg(test)]
mod reference {
    use crate::aead::{Nonce, TAG_LEN};
    use crate::aes::reference::Aes128;
    use crate::aes::BLOCK_LEN;

    /// Multiplication in GF(2^128), one bit of `x` per iteration.
    pub(super) fn gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// Byte-wise AES-128-GCM.
    pub(super) struct Aes128Gcm {
        aes: Aes128,
        h: u128,
    }

    impl Aes128Gcm {
        pub(super) fn new(key: &[u8; 16]) -> Self {
            let aes = Aes128::new(key);
            let h = u128::from_be_bytes(aes.encrypt_block_copy(&[0u8; BLOCK_LEN]));
            Aes128Gcm { aes, h }
        }

        fn counter_block(nonce: &Nonce, counter: u32) -> [u8; BLOCK_LEN] {
            let mut block = [0u8; BLOCK_LEN];
            block[..12].copy_from_slice(nonce.as_bytes());
            block[12..].copy_from_slice(&counter.to_be_bytes());
            block
        }

        fn ctr_xor(&self, nonce: &Nonce, data: &mut [u8]) {
            let mut counter = 2u32;
            for chunk in data.chunks_mut(BLOCK_LEN) {
                let keystream = self
                    .aes
                    .encrypt_block_copy(&Self::counter_block(nonce, counter));
                for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                    *byte ^= ks;
                }
                counter = counter.wrapping_add(1);
            }
        }

        fn tag(&self, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
            let block_to_u128 = |chunk: &[u8]| {
                let mut block = [0u8; BLOCK_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                u128::from_be_bytes(block)
            };
            let mut y = 0u128;
            for chunk in aad.chunks(BLOCK_LEN) {
                y = gf_mul(y ^ block_to_u128(chunk), self.h);
            }
            for chunk in ciphertext.chunks(BLOCK_LEN) {
                y = gf_mul(y ^ block_to_u128(chunk), self.h);
            }
            let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
            let ghash = gf_mul(y ^ lengths, self.h).to_be_bytes();
            let mask = self.aes.encrypt_block_copy(&Self::counter_block(nonce, 1));
            let mut tag = [0u8; TAG_LEN];
            for i in 0..TAG_LEN {
                tag[i] = ghash[i] ^ mask[i];
            }
            tag
        }

        pub(super) fn seal(&self, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
            let mut out = plaintext.to_vec();
            self.ctr_xor(nonce, &mut out);
            let tag = self.tag(nonce, aad, &out);
            out.extend_from_slice(&tag);
            out
        }

        /// Returns the plaintext, or `None` if the tag does not verify.
        pub(super) fn open(&self, nonce: &Nonce, ciphertext: &[u8], aad: &[u8]) -> Option<Vec<u8>> {
            let (body, tag) = ciphertext.split_at(ciphertext.len().checked_sub(TAG_LEN)?);
            if self.tag(nonce, aad, body) != tag {
                return None;
            }
            let mut plaintext = body.to_vec();
            self.ctr_xor(nonce, &mut plaintext);
            Some(plaintext)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn key_from_hex(s: &str) -> AeadKey {
        let bytes = unhex(s);
        let mut key = [0u8; 16];
        key.copy_from_slice(&bytes);
        AeadKey::from_bytes(key)
    }

    fn nonce_from_hex(s: &str) -> Nonce {
        let bytes = unhex(s);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes);
        Nonce::from_bytes(nonce)
    }

    // NIST GCM test case 1: empty plaintext, empty AAD, zero key/IV.
    #[test]
    fn nist_test_case_1_empty() {
        let cipher = Aes128Gcm::new(&key_from_hex("00000000000000000000000000000000"));
        let nonce = nonce_from_hex("000000000000000000000000");
        let out = cipher.seal(&nonce, b"", b"");
        assert_eq!(hex(&out), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    // NIST GCM test case 2: single zero block.
    #[test]
    fn nist_test_case_2_zero_block() {
        let cipher = Aes128Gcm::new(&key_from_hex("00000000000000000000000000000000"));
        let nonce = nonce_from_hex("000000000000000000000000");
        let out = cipher.seal(&nonce, &[0u8; 16], b"");
        assert_eq!(
            hex(&out),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    // NIST GCM test case 3: 4-block plaintext, no AAD.
    #[test]
    fn nist_test_case_3() {
        let cipher = Aes128Gcm::new(&key_from_hex("feffe9928665731c6d6a8f9467308308"));
        let nonce = nonce_from_hex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let out = cipher.seal(&nonce, &plaintext, b"");
        assert_eq!(
            hex(&out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f59854d5c2af327cd64a62cf35abd2ba6fab4"
        );
    }

    // NIST GCM test case 4: with AAD and 60-byte plaintext.
    #[test]
    fn nist_test_case_4_with_aad() {
        let cipher = Aes128Gcm::new(&key_from_hex("feffe9928665731c6d6a8f9467308308"));
        let nonce = nonce_from_hex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let out = cipher.seal(&nonce, &plaintext, &aad);
        assert_eq!(
            hex(&out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e0915bc94fbc3221a5db94fae95ae7121a47"
        );
    }

    #[test]
    fn open_rejects_tampered_ciphertext_tag_and_aad() {
        let key = AeadKey::from_bytes([3u8; 16]);
        let cipher = Aes128Gcm::new(&key);
        let nonce = Nonce::from_bytes([9u8; 12]);
        let sealed = cipher.seal(&nonce, b"electronic health record", b"request-42");

        // Correct open works.
        assert_eq!(
            cipher.open(&nonce, &sealed, b"request-42").unwrap(),
            b"electronic health record"
        );
        // Flip a ciphertext bit.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert!(cipher.open(&nonce, &bad, b"request-42").is_err());
        // Flip a tag bit.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(cipher.open(&nonce, &bad, b"request-42").is_err());
        // Wrong AAD.
        assert!(cipher.open(&nonce, &sealed, b"request-43").is_err());
        // Wrong nonce.
        assert!(cipher
            .open(&Nonce::from_bytes([8u8; 12]), &sealed, b"request-42")
            .is_err());
        // Truncated below tag size.
        assert!(cipher.open(&nonce, &sealed[..8], b"request-42").is_err());
    }

    /// GF(2^128) operands where a carry or reduction slip would show first.
    const EDGE: [u128; 4] = [0, 1, u128::MAX, 1 << 127];

    #[test]
    fn gf_mul_matches_reference_on_edge_values() {
        for &x in &EDGE {
            for &y in &EDGE {
                assert_eq!(
                    GhashKey::new(y).mul(x),
                    reference::gf_mul(x, y),
                    "{x:#x} · {y:#x}"
                );
            }
        }
    }

    #[test]
    fn seal_matches_reference_on_a_175_kib_model() {
        let key = [0x5au8; 16];
        let nonce = Nonce::from_bytes([0xc3u8; 12]);
        let model: Vec<u8> = (0..175 * 1024u32)
            .map(|i| (i * 31 + i / 253) as u8)
            .collect();
        let sealed = Aes128Gcm::new(&AeadKey::from_bytes(key)).seal(&nonce, &model, b"model-id");
        let oracle = reference::Aes128Gcm::new(&key);
        assert!(sealed == oracle.seal(&nonce, &model, b"model-id"));
        assert!(oracle.open(&nonce, &sealed, b"model-id").as_deref() == Some(&model[..]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip(key: [u8; 16], nonce: [u8; 12], plaintext: Vec<u8>, aad: Vec<u8>) {
            let cipher = Aes128Gcm::new(&AeadKey::from_bytes(key));
            let nonce = Nonce::from_bytes(nonce);
            let sealed = cipher.seal(&nonce, &plaintext, &aad);
            prop_assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
            prop_assert_eq!(cipher.open(&nonce, &sealed, &aad).unwrap(), plaintext);
        }

        #[test]
        fn wrong_key_fails(k1: [u8; 16], k2: [u8; 16], plaintext: Vec<u8>) {
            prop_assume!(k1 != k2);
            let c1 = Aes128Gcm::new(&AeadKey::from_bytes(k1));
            let c2 = Aes128Gcm::new(&AeadKey::from_bytes(k2));
            let nonce = Nonce::from_bytes([0u8; 12]);
            let sealed = c1.seal(&nonce, &plaintext, b"");
            prop_assert!(c2.open(&nonce, &sealed, b"").is_err());
        }

        #[test]
        fn gf_mul_matches_reference(x: [u8; 16], y: [u8; 16]) {
            let (x, y) = (u128::from_be_bytes(x), u128::from_be_bytes(y));
            prop_assert_eq!(GhashKey::new(y).mul(x), reference::gf_mul(x, y));
            for edge in EDGE {
                prop_assert_eq!(GhashKey::new(y).mul(edge), reference::gf_mul(edge, y));
                prop_assert_eq!(GhashKey::new(edge).mul(x), reference::gf_mul(x, edge));
            }
        }

        // Lengths 0-80 and 0-40 cover empty, partial and whole final blocks
        // of both the ciphertext and the AAD.
        #[test]
        fn seal_matches_reference(
            key: [u8; 16],
            nonce: [u8; 12],
            plaintext: [u8; 80],
            plaintext_len in 0usize..81,
            aad: [u8; 40],
            aad_len in 0usize..41
        ) {
            let (plaintext, aad) = (&plaintext[..plaintext_len], &aad[..aad_len]);
            let nonce = Nonce::from_bytes(nonce);
            let sealed = Aes128Gcm::new(&AeadKey::from_bytes(key)).seal(&nonce, plaintext, aad);
            let oracle = reference::Aes128Gcm::new(&key);
            prop_assert_eq!(&sealed, &oracle.seal(&nonce, plaintext, aad));
            let opened = oracle.open(&nonce, &sealed, aad);
            prop_assert_eq!(opened.as_deref(), Some(plaintext));
        }
    }
}
