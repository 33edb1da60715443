//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on [`crate::sha256`].
//!
//! Every prefix in the LPPA protocol is masked as
//! `HMAC_k(numericalized prefix)`; the keyed hash is what prevents the
//! curious auctioneer from reversing a masked set back to a location or a
//! bid. Validated against the RFC 4231 test vectors.

use crate::lanes::{self, MAX_LANES};
use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Longest message the two-compression HMAC paths handle (batched and
/// [`HmacMidstate::compute`]): the message, the `0x80` terminator and the
/// 8-byte bit length must all fit in the single inner block that follows
/// the ipad block.
///
/// Every numericalized prefix in the LPPA hot path is 9 bytes, and a
/// sealed value's MAC input 20, far under this bound; longer messages
/// fall back to the streaming path inside both APIs, so callers never
/// need to check it themselves.
pub const MAX_BATCH_MSG: usize = BLOCK_LEN - 9;

/// Incremental HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use lppa_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag[..2], [0xf7, 0xbc]);
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer SHA-256 state, already past the opad block.
    outer: Sha256,
}

/// Derives the inner/outer pad blocks for `key` (RFC 2104 §2).
fn pad_blocks(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = crate::sha256::sha256(key);
        key_block[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }
    (ipad, opad)
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key`.
    ///
    /// Keys longer than the 64-byte block size are hashed first, exactly as
    /// the RFC prescribes; any key length is accepted.
    pub fn new(key: &[u8]) -> Self {
        HmacMidstate::new(key).mac()
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC and returns the 32-byte authentication tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Precomputed HMAC-SHA256 key schedule: the inner and outer SHA-256
/// states *after* absorbing the pad blocks.
///
/// Deriving those states costs two compressions and depends only on the
/// key, yet [`HmacSha256::new`] + `finalize` repeats half of that work on
/// every call. Caching the midstate once per key cuts a short-message
/// (≤ 55 bytes) MAC from four SHA-256 compressions to two — and masking a
/// prefix tag *is* a short-message MAC, so the whole LPPA hot path (every
/// `Tag::compute`, point family and range cover) runs through this type
/// via the midstate embedded in `crate::keys::HmacKey`.
///
/// # Examples
///
/// ```
/// use lppa_crypto::hmac::{hmac_sha256, HmacMidstate};
///
/// let midstate = HmacMidstate::new(b"key");
/// assert_eq!(midstate.compute(b"msg"), hmac_sha256(b"key", b"msg"));
/// ```
#[derive(Clone)]
pub struct HmacMidstate {
    /// SHA-256 state after compressing `key ⊕ ipad`.
    inner: Sha256,
    /// SHA-256 state after compressing `key ⊕ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for HmacMidstate {
    /// The midstates are key-equivalent material; never print them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HmacMidstate(<redacted>)")
    }
}

impl HmacMidstate {
    /// Precomputes the key schedule for `key`.
    ///
    /// Keys longer than the 64-byte block size are hashed first, exactly
    /// as for [`HmacSha256::new`]; the two are interchangeable for any
    /// key length.
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pad_blocks(key);
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        Self { inner, outer }
    }

    /// One-shot MAC of `message` from the cached midstate.
    ///
    /// A message of up to [`MAX_BATCH_MSG`] bytes fits one padded inner
    /// block, so it costs exactly two compressions run straight from the
    /// cached state words, with the block staged on the stack. Longer
    /// messages stream through copies of the two hashers.
    pub fn compute(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        if message.len() > MAX_BATCH_MSG {
            let mut mac = self.mac();
            mac.update(message);
            return mac.finalize();
        }
        let mut block = [0u8; BLOCK_LEN];
        stage_inner_block(&mut block, message);
        let mut state = self.inner.state_words();
        sha256::compress(&mut state, &block);
        let outer = outer_block(&state);
        state = self.outer.state_words();
        sha256::compress(&mut state, &outer);
        digest_bytes(&state)
    }

    /// Starts an incremental MAC from the cached midstate; feed it with
    /// [`HmacSha256::update`] and close with [`HmacSha256::finalize`].
    pub fn mac(&self) -> HmacSha256 {
        HmacSha256 { inner: self.inner.clone(), outer: self.outer.clone() }
    }

    /// MACs a batch of independent messages at the process-wide lane
    /// width ([`lanes::lane_width`]), delivering `(index, tag)` pairs to
    /// `sink`.
    ///
    /// A short message (≤ [`MAX_BATCH_MSG`] bytes) costs exactly two
    /// compressions from the cached midstate — one inner block carrying
    /// the padded message, one outer block carrying the inner digest. At
    /// width 8 both are batched lane-wise across the messages, so eight
    /// MACs share one AVX2 walk of the rounds; at width 1 each runs on
    /// its own (SHA-NI or portable). Longer messages take the scalar
    /// [`Self::compute`] path. Tags are bit-identical to
    /// per-message [`Self::compute`] calls; delivery order is
    /// unspecified (lanes flush as they fill), which is why the sink
    /// receives the message index.
    ///
    /// # Examples
    ///
    /// ```
    /// use lppa_crypto::hmac::HmacMidstate;
    ///
    /// let midstate = HmacMidstate::new(b"key");
    /// let msgs: &[&[u8]] = &[b"a", b"bb", b"ccc"];
    /// let mut tags = vec![[0u8; 32]; msgs.len()];
    /// midstate.compute_batch_into(msgs, |i, tag| tags[i] = tag);
    /// assert_eq!(tags[1], midstate.compute(b"bb"));
    /// ```
    pub fn compute_batch_into<M, F>(&self, messages: &[M], sink: F)
    where
        M: AsRef<[u8]>,
        F: FnMut(usize, [u8; DIGEST_LEN]),
    {
        self.compute_batch_into_with_width(lanes::lane_width(), messages, sink);
    }

    /// [`Self::compute_batch_into`] with an explicit lane width, for
    /// determinism tests and the differential oracle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in [`lanes::SUPPORTED_WIDTHS`].
    pub fn compute_batch_into_with_width<M, F>(&self, width: usize, messages: &[M], mut sink: F)
    where
        M: AsRef<[u8]>,
        F: FnMut(usize, [u8; DIGEST_LEN]),
    {
        assert!(lanes::SUPPORTED_WIDTHS.contains(&width), "unsupported lane width {width}");
        let inner_mid = self.inner.state_words();
        let outer_mid = self.outer.state_words();

        // Lane staging buffers live on the stack; `filled` lanes are in
        // use. Every width stages up to eight messages per flush: at width
        // 8 that is one full AVX2 pass, and at width 1 it lets the staged
        // blocks' byte stores retire before the kernel reads them back as
        // 16-byte words. Flushing each message on its own stalls every
        // such load on a failed store-to-load forward, which serializes
        // consecutive tags (about 155 instead of 100 ns per tag on a SHA-NI
        // Xeon).
        let mut idx = [0usize; MAX_LANES];
        let mut blocks = [[0u8; BLOCK_LEN]; MAX_LANES];
        let mut filled = 0usize;

        for (i, message) in messages.iter().enumerate() {
            let msg = message.as_ref();
            if msg.len() > MAX_BATCH_MSG {
                // Multi-block message: scalar fallback, emitted eagerly.
                sink(i, self.compute(msg));
                continue;
            }
            stage_inner_block(&mut blocks[filled], msg);
            idx[filled] = i;
            filled += 1;

            if filled == MAX_LANES {
                flush_lanes(width, &inner_mid, &outer_mid, &idx[..filled], &blocks, &mut sink);
                filled = 0;
            }
        }
        if filled > 0 {
            flush_lanes(width, &inner_mid, &outer_mid, &idx[..filled], &blocks, &mut sink);
        }
    }

    /// Convenience wrapper over [`Self::compute_batch_into`] collecting
    /// the tags into a `Vec` in message order.
    pub fn compute_batch<M: AsRef<[u8]>>(&self, messages: &[M]) -> Vec<[u8; DIGEST_LEN]> {
        let mut out = vec![[0u8; DIGEST_LEN]; messages.len()];
        self.compute_batch_into(messages, |i, tag| out[i] = tag);
        out
    }
}

/// Runs the two compressions for the `idx.len()` staged messages and
/// delivers the digests: inner blocks from the ipad midstate, then outer
/// blocks (`inner digest ‖ padding`) from the opad midstate.
fn flush_lanes<F: FnMut(usize, [u8; DIGEST_LEN])>(
    width: usize,
    inner_mid: &[u32; 8],
    outer_mid: &[u32; 8],
    idx: &[usize],
    blocks: &[[u8; BLOCK_LEN]; MAX_LANES],
    sink: &mut F,
) {
    let n = idx.len();
    // At width 8 a partial flush of n ≥ 2 messages is padded with dummy
    // lanes to one full pass: on the AVX2 hosts without SHA-NI that
    // default to width 8, one 8-lane pass costs less than n portable
    // compressions. Dummy outputs are simply discarded, so the live tags
    // stay bit-identical. At width 1 no dummy runs.
    let run = if width == MAX_LANES && n > 1 { MAX_LANES } else { n };
    let mut states = [*inner_mid; MAX_LANES];
    lanes::compress_batch_with_width(width, &mut states[..run], &blocks[..run]);
    let mut outer_blocks = [[0u8; BLOCK_LEN]; MAX_LANES];
    for (block, state) in outer_blocks[..run].iter_mut().zip(&states[..run]) {
        *block = outer_block(state);
    }
    states[..run].fill(*outer_mid);
    lanes::compress_batch_with_width(width, &mut states[..run], &outer_blocks[..run]);

    for (state, &message_index) in states.iter().zip(idx) {
        sink(message_index, digest_bytes(state));
    }
}

/// Writes the inner block for a message of at most [`MAX_BATCH_MSG`]
/// bytes in place: message ‖ 0x80 ‖ zeros ‖ total bit length (the ipad
/// block already absorbed counts toward it). Writing into the caller's
/// block, not returning one, keeps the batch path from copying each
/// staged block once more.
fn stage_inner_block(block: &mut [u8; BLOCK_LEN], message: &[u8]) {
    *block = [0u8; BLOCK_LEN];
    block[..message.len()].copy_from_slice(message);
    block[message.len()] = 0x80;
    let bit_len = ((BLOCK_LEN + message.len()) as u64) * 8;
    block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
}

/// The outer block for an inner digest held as state words: the 32-byte
/// digest, the terminator and the (64 + 32) * 8 = 768 bit length — one
/// block exactly.
fn outer_block(inner: &[u32; 8]) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..DIGEST_LEN].copy_from_slice(&digest_bytes(inner));
    block[DIGEST_LEN] = 0x80;
    let bit_len = ((BLOCK_LEN + DIGEST_LEN) as u64) * 8;
    block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
    block
}

/// The big-endian digest bytes of a final state.
fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut digest = [0u8; DIGEST_LEN];
    for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// One-shot HMAC-SHA256.
///
/// # Examples
///
/// ```
/// let tag = lppa_crypto::hmac::hmac_sha256(b"secret", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time equality check for two MAC tags.
///
/// The auctioneer compares masked prefixes by equality; using a
/// short-circuiting comparison there would open a (mostly theoretical,
/// in-process) timing channel, so the library offers this helper.
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks one RFC 4231 vector through every keying path: the
    /// one-shot function, a fresh precomputed [`HmacMidstate`], and an
    /// incremental MAC started from that midstate. `expected_hex` may be
    /// a truncated tag (RFC 4231 case 5 specifies 128 bits).
    fn check_vector(key: &[u8], data: &[u8], expected_hex: &str) {
        assert!(hex(&hmac_sha256(key, data)).starts_with(expected_hex));
        let midstate = HmacMidstate::new(key);
        assert!(hex(&midstate.compute(data)).starts_with(expected_hex));
        let mut mac = midstate.mac();
        mac.update(data);
        assert!(hex(&mac.finalize()).starts_with(expected_hex));
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        check_vector(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    // RFC 4231 test case 2: short key, short data.
    #[test]
    fn rfc4231_case_2() {
        check_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    // RFC 4231 test case 3: key and data of 0xaa/0xdd fill.
    #[test]
    fn rfc4231_case_3() {
        check_vector(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    // RFC 4231 test case 4: 25-byte counting key, 0xcd fill data.
    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        check_vector(
            &key,
            &[0xcdu8; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    // RFC 4231 test case 5: the vector is specified as a 128-bit
    // truncated tag — exactly the truncation `crate::tag::Tag` applies.
    #[test]
    fn rfc4231_case_5_truncated() {
        check_vector(&[0x0cu8; 20], b"Test With Truncation", "a3b6167473100ee06e0c796c2955552b");
    }

    // RFC 4231 test case 6: key larger than one block.
    #[test]
    fn rfc4231_case_6_long_key() {
        check_vector(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // RFC 4231 test case 7: long key and long data.
    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        check_vector(
            &[0xaau8; 131],
            data,
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn midstate_is_reusable_across_messages() {
        // Every length from empty, across the one-block bound
        // (MAX_BATCH_MSG), to past two blocks, under a short and a
        // hashed long key: `compute` must equal the streaming HMAC.
        for key in [b"reused-key".as_slice(), &[0x5cu8; 100]] {
            let midstate = HmacMidstate::new(key);
            for len in 0..=130usize {
                let msg: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                assert_eq!(midstate.compute(&msg), hmac_sha256(key, &msg), "len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"0123456789abcdef";
        let msg: Vec<u8> = (0u16..300).map(|i| (i & 0xff) as u8).collect();
        let one_shot = hmac_sha256(key, &msg);
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), one_shot);
    }

    #[test]
    fn different_keys_produce_different_tags() {
        let t1 = hmac_sha256(b"key-one", b"same message");
        let t2 = hmac_sha256(b"key-two", b"same message");
        assert_ne!(t1, t2);
    }

    #[test]
    fn empty_key_and_message_are_accepted() {
        // Degenerate inputs should still produce a well-defined tag.
        let tag = hmac_sha256(b"", b"");
        assert_eq!(tag.len(), 32);
    }

    #[test]
    fn batch_matches_scalar_for_every_width_and_size() {
        let midstate = HmacMidstate::new(b"batch-key");
        // Message lengths straddle the MAX_BATCH_MSG fallback boundary.
        // The sizes 0..=17 end on every partial group of 1 to 7 staged
        // messages at width 8, and 23 flushes two whole groups of eight.
        let messages: Vec<Vec<u8>> = (0..23u8)
            .map(|i| {
                let len = [0, 1, 9, 54, 55, 56, 100][i as usize % 7];
                vec![i ^ 0x5a; len]
            })
            .collect();
        let want: Vec<_> = messages.iter().map(|m| midstate.compute(m)).collect();
        for width in crate::lanes::SUPPORTED_WIDTHS {
            for n in (0..=17).chain([23]) {
                let mut got = vec![[0u8; DIGEST_LEN]; n];
                let mut seen = vec![false; n];
                midstate.compute_batch_into_with_width(width, &messages[..n], |i, tag| {
                    got[i] = tag;
                    seen[i] = true;
                });
                assert!(seen.iter().all(|&s| s), "width={width} n={n}: sink missed an index");
                assert_eq!(got, want[..n], "width={width} n={n}");
            }
        }
    }

    #[test]
    fn compute_batch_returns_message_order() {
        let midstate = HmacMidstate::new(b"vec-key");
        let messages: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; (i as usize * 7) % 60]).collect();
        let got = midstate.compute_batch(&messages);
        for (m, tag) in messages.iter().zip(&got) {
            assert_eq!(*tag, midstate.compute(m));
        }
    }

    #[test]
    fn batch_matches_rfc4231_vectors() {
        // Case 1 and case 2 messages, MACed as one batch per key.
        let m1 = HmacMidstate::new(&[0x0bu8; 20]);
        let tags = m1.compute_batch(&[b"Hi There".as_slice()]);
        assert!(hex(&tags[0])
            .starts_with("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"));
        let m2 = HmacMidstate::new(b"Jefe");
        let tags = m2.compute_batch(&[b"what do ya want for nothing?".as_slice()]);
        assert!(hex(&tags[0])
            .starts_with("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"));
    }

    #[test]
    fn verify_tag_accepts_equal_and_rejects_unequal() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&tag, &tag));
        let mut other = tag;
        other[31] ^= 1;
        assert!(!verify_tag(&tag, &other));
        assert!(!verify_tag(&tag, &tag[..31]));
    }
}
