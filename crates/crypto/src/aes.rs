//! AES-128 block cipher (FIPS 197).
//!
//! Only the forward cipher is implemented because GCM (CTR-based) never needs
//! the inverse cipher.  Rounds use the classic T-table formulation over `u32`
//! column words: four 256-entry tables, built at compile time from the S-box,
//! fold SubBytes, ShiftRows and MixColumns into sixteen lookups per round, and
//! the final round goes through the S-box alone.  Speed matters here: besides
//! request and response encryption, SeMIRT decrypts each model on the cold and
//! model-switch paths, so this cipher sits on the latency-critical path.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
const ROUNDS: usize = 10;

#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ ((x >> 7) * 0x1b)
}

/// Builds one round table: entry `x` is the MixColumns column
/// `(2·S[x], S[x], S[x], 3·S[x])` as a big-endian word, rotated right by
/// `rot` bits so the same lookup serves each of the four state rows.
const fn round_table(rot: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        table[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]).rotate_right(rot);
        i += 1;
    }
    table
}

static TE0: [u32; 256] = round_table(0);
static TE1: [u32; 256] = round_table(8);
static TE2: [u32; 256] = round_table(16);
static TE3: [u32; 256] = round_table(24);

/// Byte `row` of column word `w` (row 0 is the most significant byte), as a
/// table index.
fn byte(w: u32, row: usize) -> usize {
    usize::from((w >> (24 - 8 * row)) as u8)
}

/// `SBOX[x]` applied to each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(std::array::from_fn(|row| SBOX[byte(w, row)]))
}

/// An expanded AES-128 key schedule.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as big-endian column words, four per round.
    round_keys: [u32; 4 * (ROUNDS + 1)],
}

impl Aes128 {
    /// Expands a 16-byte key into the round-key schedule.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts a single 16-byte block in place.
    ///
    /// Row `r` of output column `c` takes its input from column `c + r`
    /// (mod 4): that is ShiftRows, folded into which word each lookup reads.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let rk = &self.round_keys;
        let mut s: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ rk[c]
        });
        for k in rk[4..4 * ROUNDS].chunks_exact(4) {
            s = std::array::from_fn(|c| {
                TE0[byte(s[c], 0)]
                    ^ TE1[byte(s[(c + 1) % 4], 1)]
                    ^ TE2[byte(s[(c + 2) % 4], 2)]
                    ^ TE3[byte(s[(c + 3) % 4], 3)]
                    ^ k[c]
            });
        }
        let k = &rk[4 * ROUNDS..];
        for c in 0..4 {
            let word =
                u32::from_be_bytes(std::array::from_fn(|row| SBOX[byte(s[(c + row) % 4], row)]));
            block[4 * c..4 * c + 4].copy_from_slice(&(word ^ k[c]).to_be_bytes());
        }
    }

    /// Encrypts a block and returns the result, leaving the input untouched.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// Textbook AES-128 that applies the S-box, ShiftRows and MixColumns one
/// byte at a time: a test oracle that shares no round code with the
/// T-table cipher.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BLOCK_LEN, KEY_LEN, RCON, ROUNDS, SBOX};

    /// Byte-wise AES-128.
    pub(crate) struct Aes128 {
        round_keys: [[u8; BLOCK_LEN]; ROUNDS + 1],
    }

    impl Aes128 {
        pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
            let mut words = [[0u8; 4]; 4 * (ROUNDS + 1)];
            for i in 0..4 {
                words[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            for i in 4..4 * (ROUNDS + 1) {
                let mut temp = words[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for byte in &mut temp {
                        *byte = SBOX[*byte as usize];
                    }
                    temp[0] ^= RCON[i / 4 - 1];
                }
                for j in 0..4 {
                    words[i][j] = words[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; BLOCK_LEN]; ROUNDS + 1];
            for round in 0..=ROUNDS {
                for word in 0..4 {
                    round_keys[round][4 * word..4 * word + 4]
                        .copy_from_slice(&words[4 * round + word]);
                }
            }
            Aes128 { round_keys }
        }

        pub(crate) fn encrypt_block_copy(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..ROUNDS {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[ROUNDS]);
            state
        }
    }

    fn add_round_key(state: &mut [u8; BLOCK_LEN], round_key: &[u8; BLOCK_LEN]) {
        for i in 0..BLOCK_LEN {
            state[i] ^= round_key[i];
        }
    }

    fn sub_bytes(state: &mut [u8; BLOCK_LEN]) {
        for byte in state.iter_mut() {
            *byte = SBOX[*byte as usize];
        }
    }

    // The AES state is column-major: byte `state[c*4 + r]` is row r, column c.
    fn shift_rows(state: &mut [u8; BLOCK_LEN]) {
        let original = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[col * 4 + row] = original[((col + row) % 4) * 4 + row];
            }
        }
    }

    fn xtime(x: u8) -> u8 {
        let shifted = x << 1;
        if x & 0x80 != 0 {
            shifted ^ 0x1b
        } else {
            shifted
        }
    }

    fn mix_columns(state: &mut [u8; BLOCK_LEN]) {
        for col in 0..4 {
            let a0 = state[col * 4];
            let a1 = state[col * 4 + 1];
            let a2 = state[col * 4 + 2];
            let a3 = state[col * 4 + 3];
            state[col * 4] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
            state[col * 4 + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
            state[col * 4 + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
            state[col * 4 + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // FIPS 197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    // NIST SP 800-38A ECB example (first block).
    #[test]
    fn sp800_38a_ecb_block1() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let cipher = Aes128::new(&key);
        let ct = cipher.encrypt_block_copy(&plaintext);
        assert_eq!(
            ct,
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97
            ]
        );
    }

    #[test]
    fn zero_key_zero_block_known_answer() {
        let cipher = Aes128::new(&[0u8; 16]);
        let ct = cipher.encrypt_block_copy(&[0u8; 16]);
        assert_eq!(
            ct,
            [
                0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
                0x2b, 0x2e
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rounds_match_the_byte_wise_reference(key: [u8; 16], block: [u8; 16]) {
            prop_assert_eq!(
                Aes128::new(&key).encrypt_block_copy(&block),
                reference::Aes128::new(&key).encrypt_block_copy(&block)
            );
        }
    }

    #[test]
    fn encryption_is_deterministic_and_key_dependent() {
        let c1 = Aes128::new(&[1u8; 16]);
        let c2 = Aes128::new(&[2u8; 16]);
        let block = [5u8; 16];
        assert_eq!(c1.encrypt_block_copy(&block), c1.encrypt_block_copy(&block));
        assert_ne!(c1.encrypt_block_copy(&block), c2.encrypt_block_copy(&block));
    }
}
