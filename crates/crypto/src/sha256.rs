//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The LPPA protocol masks every prefix with a keyed hash; this module
//! provides the underlying compression function. The portable
//! implementation ([`compress_portable`]) is a straightforward,
//! allocation-free translation of the specification, validated against the
//! official NIST test vectors in the unit tests; on CPUs with SHA-NI the
//! hasher runs the bit-identical kernel in [`crate::lanes`] instead.

/// Size in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Size in bytes of a SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

/// The eight initial hash values (fractional parts of the square roots of
/// the first eight primes).
pub(crate) const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// The sixty-four round constants (fractional parts of the cube roots of
/// the first sixty-four primes).
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use lppa_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far, used for the length suffix in padding.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, len: 0, buf: [0u8; BLOCK_LEN], buf_len: 0 }
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Top up a partially filled buffer first.
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input.
        while rest.len() >= BLOCK_LEN {
            let (block, tail) = rest.split_at(BLOCK_LEN);
            let mut owned = [0u8; BLOCK_LEN];
            owned.copy_from_slice(block);
            self.compress(&owned);
            rest = tail;
        }

        // Stash the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        // Number of zero bytes so that total length ≡ 56 (mod 64).
        let pad_len = if self.buf_len < 56 { 56 - self.buf_len } else { 120 - self.buf_len };
        let mut tail = [0u8; BLOCK_LEN * 2];
        tail[..pad_len].copy_from_slice(&pad[..pad_len]);
        tail[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());

        // `update` would keep counting length, so bypass it.
        let total = pad_len + 8;
        let mut fed = 0;
        while fed < total {
            let take = (total - fed).min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&tail[fed..fed + take]);
            self.buf_len += take;
            fed += take;
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        debug_assert_eq!(self.buf_len, 0, "padding must end on a block boundary");

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Processes one 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        compress(&mut self.state, block);
    }

    /// The eight 32-bit words of the current chaining value.
    ///
    /// Only meaningful on a block boundary (no buffered partial input);
    /// the HMAC midstate and the multi-lane batch path rely on this to
    /// resume compression outside the incremental hasher.
    pub(crate) fn state_words(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "state_words read off a block boundary");
        self.state
    }
}

/// The SHA-256 compression function: folds one 64-byte block into `state`.
///
/// Every SHA-256 in the crate goes through here. It runs the SHA-NI
/// kernel of [`crate::lanes`] when the CPU has it and
/// [`compress_portable`] otherwise; the two are bit-identical.
#[inline]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if crate::lanes::sha_ni_available() {
        crate::lanes::sha_ni::compress(state, block);
        return;
    }
    compress_portable(state, block);
}

/// The portable SHA-256 compression function (FIPS 180-4 §6.2.2): folds
/// one 64-byte block into `state` in plain Rust.
///
/// This is the reference every kernel in [`crate::lanes`] (SHA-NI, AVX2
/// 8-lane) is tested against, and the path [`compress`] takes on CPUs
/// without SHA-NI.
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot convenience wrapper around [`Sha256`].
///
/// # Examples
///
/// ```
/// let digest = lppa_crypto::sha256::sha256(b"");
/// assert_eq!(digest[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_input_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_matches_nist_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_updates_match_one_shot() {
        let data: Vec<u8> = (0u16..517).map(|i| (i % 251) as u8).collect();
        let one_shot = sha256(&data);
        // Feed in irregular chunk sizes that straddle block boundaries.
        for chunk_len in [1usize, 3, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_len) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Message lengths around the 55/56-byte padding boundary all hash
        // without panicking and produce distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 0..130usize {
            let data = vec![0xabu8; len];
            assert!(seen.insert(sha256(&data)), "collision at len={len}");
        }
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default();
        let b = Sha256::new();
        assert_eq!(a.finalize(), b.finalize());
    }
}
