//! Byte pins for submission frames.
//!
//! The outcome and journal pins elsewhere would not notice a change in
//! how a submission is laid out on the wire, so these tests digest
//! every byte of `encode_submission_frame` for seeded submissions at
//! the two shapes the service runs: the `fleet` shape (2 channels) and
//! the paper-scale `wire129` shape (129 channels). The constants were
//! taken from the `HashSet`-backed encoder that sorted every group at
//! send time; the frame is a function of the submission's content, so
//! they hold for any in-memory representation of the tag groups.

use lppa::protocol::SuSubmission;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, Ttp};
use lppa_auction::bidder::Location;
use lppa_crypto::sha256::Sha256;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_session::encode_submission_frame;

/// SHA-256 (hex) over the frames of `n` seeded bidders on `k` channels,
/// with plain zeros and disguised zeros mixed into the bids, and the
/// total byte count.
fn frames_digest(k: usize, n: usize, seed: u64) -> (String, usize) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(k, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::geometric(0.3, 0.8, config.bid_max());
    let mut hasher = Sha256::new();
    let mut bytes = 0;
    for i in 0..n {
        let location =
            Location::new(rng.gen_range(0..=config.loc_max()), rng.gen_range(0..=config.loc_max()));
        let bids: Vec<u32> = (0..k)
            .map(|_| if rng.gen_bool(0.4) { 0 } else { rng.gen_range(1..=config.bid_max()) })
            .collect();
        let sub = SuSubmission::build(location, &bids, &ttp, &policy, &mut rng).unwrap();
        let frame = encode_submission_frame(i, 1 + (i % 3) as u32, &sub);
        bytes += frame.len();
        hasher.update(&frame);
    }
    let hex = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
    (hex, bytes)
}

#[test]
fn fleet_shape_frames_are_pinned() {
    let (digest, bytes) = frames_digest(2, 6, 0x00f1_ee70);
    assert_eq!(bytes, 6 * 1_691);
    assert_eq!(digest, "eaa1fe409aca2a4da557f4d0f3246994761f3178a0f59c9c7153ff6ba2967bca");
}

#[test]
fn wire129_shape_frames_are_pinned() {
    let (digest, bytes) = frames_digest(129, 3, 0x0129_0129);
    assert_eq!(bytes, 3 * 65_715);
    assert_eq!(digest, "a4ba18a1dbd75bfe00b170dae77d78493243fec784b463cf7f46481ee13a6645");
}
