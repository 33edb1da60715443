//! A zero-dependency parallel runtime for the LPPA workspace.
//!
//! LPPA's independent units of work are the paper's own: every SU masks
//! its own bids on its own device, and every regional auction settles
//! on its own. An auctioneer round (conflict graph, tie classes, greedy
//! allocation) runs on the calling thread, and the service layer
//! settles its areas on one plain `std` thread per shard. The workspace
//! is hermetic by design, so instead of `rayon` this crate provides the
//! one primitive the bidders need, built on `std::thread`:
//! [`par_map_staged`], a fork-join map over a slice with per-chunk
//! scratch and results in input order, through which
//! `build_submissions` masks a batch of bidders. It also holds the
//! strict parsers every environment knob in the workspace shares.
//!
//! # Scheduling
//!
//! [`par_map_staged`] splits its work into chunks and workers
//! *self-schedule*: each thread repeatedly claims the next unclaimed
//! chunk from a shared atomic counter ("work-stealing lite" — the cheap
//! half of a deque scheduler, which is all uniform workloads need).
//! Results travel back over a channel labelled with their chunk number
//! and are reassembled in order, so the output is **deterministic and
//! identical for every thread count** — a property the repo's
//! reproducibility CI gate checks by running the whole suite under
//! `LPPA_THREADS=1` and `LPPA_THREADS=4`.
//!
//! # Thread count
//!
//! The worker count comes from the `LPPA_THREADS` environment variable
//! (clamped to ≥ 1), defaulting to [`std::thread::available_parallelism`].
//! It is read once per process and cached, and it is the workspace's
//! only scheduling setting. With one worker [`par_map_staged`] runs
//! inline on the calling thread — no threads are spawned and no channel
//! is allocated.
//!
//! # Examples
//!
//! ```
//! let squares = lppa_par::par_map_staged(&[1u64, 2, 3, 4], || (), |_, &x| x * x);
//! assert_eq!(squares, [1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Environment variable controlling the worker-thread count.
pub const THREADS_ENV: &str = "LPPA_THREADS";

/// Upper bound any worker-count knob is clamped to. A typo like
/// `LPPA_THREADS=100000` must not fork-bomb the host; no machine this
/// workspace targets benefits from more workers than this.
pub const MAX_WORKERS: usize = 512;

/// Chunks per worker that [`par_map_staged`] aims for, so slow chunks can be
/// compensated by idle workers picking up remaining ones.
const CHUNKS_PER_THREAD: usize = 4;

/// Parses a `LPPA_THREADS`-style worker-count value.
///
/// The accepted grammar is deliberately strict:
///
/// * surrounding ASCII whitespace is trimmed (`" 4 "`, `"4\n"` → 4);
/// * only plain decimal digits are accepted — signs (`"+4"`, `"-1"`),
///   hex, separators and embedded whitespace are all rejected;
/// * `0` is rejected: a zero-worker pool cannot make progress, and
///   silently reading it as 1 would hide the misconfiguration;
/// * values that overflow `usize` are rejected rather than saturated;
/// * accepted values are clamped to [`MAX_WORKERS`].
///
/// `None` means unset or invalid; callers fall back to their default
/// (the machine's available parallelism for `LPPA_THREADS`).
///
/// # Examples
///
/// ```
/// assert_eq!(lppa_par::parse_threads(Some(" 4 ")), Some(4));
/// assert_eq!(lppa_par::parse_threads(Some("0")), None);
/// assert_eq!(lppa_par::parse_threads(Some("+4")), None);
/// assert_eq!(lppa_par::parse_threads(Some("99999999999999999999")), None);
/// ```
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    let v = value?.trim();
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse::<usize>().ok().filter(|&n| n >= 1).map(|n| n.min(MAX_WORKERS))
}

/// Parses a non-negative integer knob (tick counts, ports, millisecond
/// budgets) under the same strict grammar as [`parse_threads`]: trimmed
/// ASCII whitespace, plain decimal digits only, overflow rejected.
/// Unlike worker counts, `0` is a legal value — "no delay" and "retry
/// forever disabled" are real configurations.
///
/// # Examples
///
/// ```
/// assert_eq!(lppa_par::parse_count(Some(" 250 ")), Some(250));
/// assert_eq!(lppa_par::parse_count(Some("0")), Some(0));
/// assert_eq!(lppa_par::parse_count(Some("+1")), None);
/// assert_eq!(lppa_par::parse_count(Some("")), None);
/// assert_eq!(lppa_par::parse_count(Some("99999999999999999999999")), None);
/// ```
pub fn parse_count(value: Option<&str>) -> Option<u64> {
    let v = value?.trim();
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse::<u64>().ok()
}

/// Parses a probability knob in `[0, 1]` under the strict grammar:
/// trimmed ASCII whitespace, then plain decimal digits with at most one
/// interior `.`. Signs, exponents (`1e-3`), hex, `.5`/`1.` forms and
/// values above 1 are all rejected — an invalid rate must fall back to
/// the caller's default, never silently clamp.
///
/// # Examples
///
/// ```
/// assert_eq!(lppa_par::parse_rate(Some("0.25")), Some(0.25));
/// assert_eq!(lppa_par::parse_rate(Some(" 1 ")), Some(1.0));
/// assert_eq!(lppa_par::parse_rate(Some("+0.5")), None);
/// assert_eq!(lppa_par::parse_rate(Some("1e-3")), None);
/// assert_eq!(lppa_par::parse_rate(Some("1.5")), None);
/// ```
pub fn parse_rate(value: Option<&str>) -> Option<f64> {
    let v = value?.trim();
    let (int, frac) = match v.split_once('.') {
        Some((i, f)) => (i, f),
        None => (v, "0"),
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !digits(int) || !digits(frac) {
        return None;
    }
    // All-digit integer and fraction parts make `f64::from_str` total
    // and exact enough; the range check is what matters.
    v.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r))
}

/// Parses a boolean knob: exactly `0` (off) or `1` (on) after trimming.
/// `true`/`yes`/`on` spellings are rejected — one spelling per knob.
///
/// # Examples
///
/// ```
/// assert_eq!(lppa_par::parse_flag(Some("1")), Some(true));
/// assert_eq!(lppa_par::parse_flag(Some(" 0\n")), Some(false));
/// assert_eq!(lppa_par::parse_flag(Some("true")), None);
/// assert_eq!(lppa_par::parse_flag(Some("")), None);
/// ```
pub fn parse_flag(value: Option<&str>) -> Option<bool> {
    match value?.trim() {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The number of worker threads: [`par_map_staged`]'s fan-out, and the
/// default shard count of the service layer's `ServiceConfig` (one
/// thread per shard).
///
/// `LPPA_THREADS` if set to a positive integer, else
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
/// Cached after the first call.
pub fn thread_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Maps `f` over `items` in parallel with a per-chunk staging value;
/// the result order matches the input order regardless of thread count
/// or scheduling.
///
/// Each worker chunk checks one `S` out of `init()` and threads it
/// mutably through every item it maps, so scratch buffers (tag-set
/// pools, prefix staging) amortize across a whole chunk instead of
/// being rebuilt per item. `f` must give the same result for any prior
/// state of its stage (the workspace's scratch types guarantee exactly
/// that: pooled buffers are observationally identical to fresh ones),
/// which keeps the output independent of chunk boundaries and thread
/// count.
///
/// Panics in `f` propagate to the caller (via the scoped-thread join).
///
/// # Examples
///
/// ```
/// let out = lppa_par::par_map_staged(&[1u32, 2, 3], Vec::new, |buf: &mut Vec<u32>, &x| {
///     buf.push(x); // per-chunk scratch, reused across the chunk's items
///     x * 2
/// });
/// assert_eq!(out, [2, 4, 6]);
/// ```
pub fn par_map_staged<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    // Aim for several chunks per worker for load balance, but never
    // more chunks than items.
    let chunk_size = items.len().div_ceil(thread_count() * CHUNKS_PER_THREAD).max(1);
    let per_chunk = par_chunks(items, chunk_size, |_, chunk| {
        let mut stage = init();
        chunk.iter().map(|item| f(&mut stage, item)).collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Splits `items` into `chunk_size`-sized chunks (the last may be
/// shorter) and maps `f` over them in parallel. `f` receives the chunk
/// index and the chunk; results come back in chunk order.
///
/// Runs inline on the calling thread when a single worker is configured
/// or there is at most one chunk.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or if `f` panics on any chunk.
fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = thread_count().min(n_chunks);
    if threads <= 1 {
        return items.chunks(chunk_size).enumerate().map(|(i, c)| f(i, c)).collect();
    }

    let next_chunk = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next_chunk = &next_chunk;
            let f = &f;
            scope.spawn(move || loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                // The receiver outlives the scope; send cannot fail
                // unless the main thread already panicked.
                let _ = tx.send((c, f(c, &items[lo..hi])));
            });
        }
    });
    drop(tx);

    // Reassemble in chunk order so the caller sees a deterministic
    // result for every thread count.
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for (c, out) in rx {
        slots[c] = Some(out);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(c, slot)| slot.unwrap_or_else(|| panic!("chunk {c} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(par_map_staged(&items, || (), |_, &x| x * 3 + 1), expected);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_staged(&[] as &[u32], || (), |_, &x| x), Vec::<u32>::new());
        assert_eq!(par_map_staged(&[42u32], || (), |_, &x| x + 1), [43]);
    }

    #[test]
    fn par_chunks_covers_every_item_exactly_once() {
        let items: Vec<usize> = (0..97).collect();
        for chunk_size in [1usize, 2, 7, 50, 97, 200] {
            let chunks = par_chunks(&items, chunk_size, |_, c| c.to_vec());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn par_chunks_passes_consistent_chunk_indices() {
        let items: Vec<usize> = (0..40).collect();
        let indexed = par_chunks(&items, 7, |i, c| (i, c[0]));
        for (position, (index, first)) in indexed.iter().enumerate() {
            assert_eq!(*index, position);
            assert_eq!(*first, position * 7);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        par_chunks(&[1u8], 0, |_, c| c.len());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-1")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn parse_threads_handles_whitespace_consistently() {
        // Surrounding whitespace of any common kind is trimmed...
        assert_eq!(parse_threads(Some("\t8\n")), Some(8));
        assert_eq!(parse_threads(Some("  16")), Some(16));
        // ...but whitespace-only and embedded whitespace are invalid.
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("   ")), None);
        assert_eq!(parse_threads(Some("1 6")), None);
    }

    #[test]
    fn parse_threads_rejects_signs_overflow_and_radix_tricks() {
        // `usize::from_str` would accept "+4"; the strict grammar does not.
        assert_eq!(parse_threads(Some("+4")), None);
        assert_eq!(parse_threads(Some("-0")), None);
        // One past usize::MAX and an absurdly long digit string.
        assert_eq!(parse_threads(Some("18446744073709551616")), None);
        assert_eq!(parse_threads(Some(&"9".repeat(80))), None);
        assert_eq!(parse_threads(Some("0x8")), None);
        assert_eq!(parse_threads(Some("4.0")), None);
    }

    #[test]
    fn parse_threads_clamps_to_max_workers() {
        assert_eq!(parse_threads(Some("100000")), Some(MAX_WORKERS));
        assert_eq!(parse_threads(Some(&MAX_WORKERS.to_string())), Some(MAX_WORKERS));
        assert_eq!(parse_threads(Some("511")), Some(511));
    }

    #[test]
    fn parse_count_is_strict_but_allows_zero() {
        assert_eq!(parse_count(Some("0")), Some(0));
        assert_eq!(parse_count(Some(" 42\t")), Some(42));
        assert_eq!(parse_count(Some("18446744073709551615")), Some(u64::MAX));
        for bad in ["", "   ", "+1", "-1", "1 2", "0x10", "1.0", "18446744073709551616"] {
            assert_eq!(parse_count(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_count(None), None);
    }

    #[test]
    fn parse_rate_accepts_unit_interval_decimals_only() {
        assert_eq!(parse_rate(Some("0")), Some(0.0));
        assert_eq!(parse_rate(Some("1")), Some(1.0));
        assert_eq!(parse_rate(Some("0.25")), Some(0.25));
        assert_eq!(parse_rate(Some(" 0.5 ")), Some(0.5));
        assert_eq!(parse_rate(Some("1.0")), Some(1.0));
        assert_eq!(parse_rate(Some("1.000")), Some(1.0));
        for bad in [
            "", "  ", "+0.5", "-0.5", ".5", "1.", "1e-3", "1E0", "2", "1.01", "0.2.3", "0x1", "NaN",
        ] {
            assert_eq!(parse_rate(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_rate(None), None);
    }

    #[test]
    fn parse_flag_is_binary() {
        assert_eq!(parse_flag(Some("1")), Some(true));
        assert_eq!(parse_flag(Some(" 0 ")), Some(false));
        for bad in ["", " ", "true", "false", "yes", "on", "2", "01", "+1"] {
            assert_eq!(parse_flag(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_flag(None), None);
    }

    #[test]
    fn thread_count_is_at_least_one_and_stable() {
        let first = thread_count();
        assert!(first >= 1);
        assert_eq!(thread_count(), first);
    }

    #[test]
    fn results_match_sequential_reference_under_any_schedule() {
        // Large enough to exercise multi-chunk scheduling when the
        // suite runs with LPPA_THREADS > 1.
        let items: Vec<u64> = (0..5000).map(|i| i * 2654435761 % 1013).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabcd).collect();
        let mapped = par_map_staged(&items, || (), |_, &x| x.wrapping_mul(x) ^ 0xabcd);
        assert_eq!(mapped, sequential);
    }
}
