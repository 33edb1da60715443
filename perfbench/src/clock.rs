//! Calibrated timing: a CPU clock, a bench-owned reference loop, and the
//! [`Meter`] that brackets every timed piece of work with reference reads.
//!
//! On a shared host no single clock read repeats: the hypervisor steals
//! whole slices from a vCPU, and a busy sibling hyperthread slows the
//! survivors. Two measures address the two causes:
//!
//! * Work is timed on the process CPU clock, which stops while the
//!   vCPU is descheduled or the thread is preempted, so stolen slices
//!   never enter a reading. Every timed piece runs on the calling thread
//!   (the workloads pin `LPPA_THREADS=1`), so process CPU time is that
//!   thread's busy time; work moved to another thread would still count.
//! * Each piece is bracketed by a reference loop — fixed integer work
//!   whose state lives in registers — timed on the same clock
//!   immediately before and after. A piece's calibrated time is
//!   `raw × nominal ÷ mean(ref_before, ref_after)`: if the core ran 20%
//!   slow around the piece, so did the reference, and the ratio cancels.
//!
//! A busy sibling slows vector code (the batched SHA-256 tag kernel) far
//! more than scalar, memory-bound code (graphs, tables, allocation, the
//! incremental engine), so the reference has a vector part and a scalar
//! part, timed separately, and each piece names its [`RefKind`]: masking
//! is calibrated against the vector part alone, everything else against
//! both parts together.
//!
//! A piece should stay short (the budget is [`PIECE_BUDGET_NS`]) so the
//! two reference reads describe the conditions it ran under;
//! [`Meter::time_items`] splits a long run of small items into pieces
//! at that budget. A single call that cannot be split is timed whole and
//! counted in [`Meter::long_pieces`].

use std::time::Instant;

/// Reference-loop steps of the vector part (8 SHA-256-style lanes).
pub const REF_LANE_STEPS: u32 = 760;

/// Reference-loop steps of the scalar part (4 independent chains),
/// about as long as the vector part on an idle core.
pub const REF_SCALAR_STEPS: u64 = 7500;

/// Nominal reference times in nanoseconds: about what each part takes on
/// an idle 2020s x86-64 core. Calibrated times are expressed in units
/// where the reference takes exactly this long; the constants are fixed
/// so calibrated figures compare across runs.
pub const NOMINAL: Nominal = Nominal { vector_ns: 16_000.0, mixed_ns: 32_000.0 };

/// Pieces longer than this are split where the work allows it.
pub const PIECE_BUDGET_NS: u64 = 2_000_000;

/// Which reference a piece is calibrated against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// The vector part alone: SU-side masking.
    Vector,
    /// Both parts: everything else.
    Mixed,
}

/// Nominal reference times per [`RefKind`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Nominal {
    /// Nominal vector-part time, ns.
    pub vector_ns: f64,
    /// Nominal time of both parts, ns.
    pub mixed_ns: f64,
}

/// One reference read: the durations of its two parts, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefRead {
    /// The vector part.
    pub vector: u64,
    /// The scalar part.
    pub scalar: u64,
}

impl RefRead {
    /// The read as `kind` sees it.
    pub fn of(self, kind: RefKind) -> u64 {
        match kind {
            RefKind::Vector => self.vector,
            RefKind::Mixed => self.vector + self.scalar,
        }
    }
}

/// A source of time readings plus the reference loop.
pub trait Clock {
    /// Current reading in nanoseconds.
    fn now(&mut self) -> u64;
    /// Runs the reference loop once; returns its parts' durations on
    /// this clock.
    fn reference(&mut self) -> RefRead;
}

/// The process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`).
#[derive(Debug, Default)]
pub struct CpuClock;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn cpu_ns() -> u64 {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec with the C layout of
        // 64-bit Linux, and the clock id is a constant the kernel always
        // supports; clock_gettime writes only through the pointer.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn cpu_ns() -> u64 {
        use std::sync::OnceLock;
        static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
        ORIGIN.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
    }
}

pub use sys::cpu_ns;

/// The vector part of the reference: eight independent SHA-256-style
/// lanes of rotates, xors and adds — the shape of the batched tag kernel
/// that dominates masking. All state in registers.
#[inline(never)]
pub fn reference_vector(steps: u32) -> u32 {
    let mut a = [
        0x6a09_e667u32,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let mut b = [1u32, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..steps {
        for l in 0..8 {
            let x = a[l];
            let s0 = x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22);
            let s1 = b[l].rotate_right(6) ^ b[l].rotate_right(11) ^ b[l].rotate_right(25);
            let ch = (x & b[l]) ^ (!x & s0);
            b[l] = b[l].wrapping_add(s1).wrapping_add(ch).wrapping_add(i);
            a[l] = s0.wrapping_add(b[l]);
        }
    }
    a.iter().zip(&b).fold(0u32, |acc, (p, q)| acc ^ p ^ q)
}

/// The scalar part of the reference: four independent multiply-xorshift
/// chains on the integer ports. All state in registers.
#[inline(never)]
pub fn reference_scalar(steps: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4];
    for i in 0..steps {
        for v in &mut x {
            *v = v.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (*v >> 29);
        }
    }
    x[0] ^ x[1] ^ x[2] ^ x[3]
}

impl Clock for CpuClock {
    fn now(&mut self) -> u64 {
        cpu_ns()
    }

    fn reference(&mut self) -> RefRead {
        use std::hint::black_box;
        let start = cpu_ns();
        black_box(reference_vector(black_box(REF_LANE_STEPS)));
        let mid = cpu_ns();
        black_box(reference_scalar(black_box(REF_SCALAR_STEPS)));
        let end = cpu_ns();
        RefRead { vector: mid - start, scalar: end - mid }
    }
}

/// One timed item: its raw clock time, its wall time, and the
/// calibration of the piece it ran in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Raw duration on the meter's clock, ns.
    pub raw_ns: u64,
    /// Wall-clock duration, ns (diagnostic only).
    pub wall_ns: u64,
    /// Mean of the reference reads bracketing the piece, as the item's
    /// kind sees them, ns.
    pub ref_ns: f64,
    /// The item's calibration factor, `nominal ÷ ref_ns`.
    pub factor: f64,
    /// The piece's factor for each kind (the tracer scales spans of
    /// either kind from one traced piece).
    pub factors: [f64; 2],
}

impl Sample {
    /// The calibrated duration in nanoseconds.
    pub fn calibrated_ns(&self) -> f64 {
        self.raw_ns as f64 * self.factor
    }

    /// The sum of several samples as one: raw and wall add up, and the
    /// factor becomes the raw-weighted mean, so the calibrated total is
    /// the sum of the parts' calibrated times.
    pub fn sum(parts: &[Sample]) -> Sample {
        let raw: u64 = parts.iter().map(|s| s.raw_ns).sum();
        let wall: u64 = parts.iter().map(|s| s.wall_ns).sum();
        let cal: f64 = parts.iter().map(Sample::calibrated_ns).sum();
        let weighted = |f: &dyn Fn(&Sample) -> f64| {
            if raw == 0 {
                parts.first().map_or(0.0, f)
            } else {
                parts.iter().map(|s| f(s) * s.raw_ns as f64).sum::<f64>() / raw as f64
            }
        };
        Sample {
            raw_ns: raw,
            wall_ns: wall,
            ref_ns: weighted(&|s| s.ref_ns),
            factor: if raw == 0 { 1.0 } else { cal / raw as f64 },
            factors: [weighted(&|s| s.factors[0]), weighted(&|s| s.factors[1])],
        }
    }
}

/// The calibration of a piece bracketed by two reference reads, as
/// `kind` sees them: `(mean reference, nominal ÷ mean)`.
pub fn calibration_factor(
    nominal: Nominal,
    kind: RefKind,
    before: RefRead,
    after: RefRead,
) -> (f64, f64) {
    let mean = ((before.of(kind) + after.of(kind)) as f64 / 2.0).max(1.0);
    let nominal_ns = match kind {
        RefKind::Vector => nominal.vector_ns,
        RefKind::Mixed => nominal.mixed_ns,
    };
    (mean, nominal_ns / mean)
}

/// Times pieces of work between reference reads.
pub struct Meter<C: Clock> {
    clock: C,
    nominal: Nominal,
    budget_ns: u64,
    /// The latest reference read, shared as the "before" of the next
    /// piece when it is still fresh.
    last_ref: Option<(RefRead, Instant)>,
    refs: Vec<RefRead>,
    long_pieces: usize,
}

/// How long a trailing reference read stays usable as the next piece's
/// leading one.
const REF_FRESH_NS: u128 = 200_000;

impl<C: Clock> Meter<C> {
    /// A meter over `clock` with the given nominal reference times and
    /// piece budget.
    pub fn new(clock: C, nominal: Nominal, budget_ns: u64) -> Self {
        Self { clock, nominal, budget_ns, last_ref: None, refs: Vec::new(), long_pieces: 0 }
    }

    fn take_ref(&mut self) -> RefRead {
        let r = self.clock.reference();
        self.refs.push(r);
        self.last_ref = Some((r, Instant::now()));
        r
    }

    fn leading_ref(&mut self) -> RefRead {
        match self.last_ref {
            Some((r, at)) if at.elapsed().as_nanos() < REF_FRESH_NS => r,
            _ => self.take_ref(),
        }
    }

    /// Times `f` as one piece of [`RefKind::Mixed`] work between two
    /// reference reads.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let mut f = Some(f);
        let (mut out, samples) =
            self.time_items(1, |_| RefKind::Mixed, |_| (f.take().expect("one item"))());
        (out.pop().expect("one item"), samples[0])
    }

    /// Times each of `n` items separately; item `i` is calibrated as
    /// `kind(i)`. Consecutive items share one piece — one reference
    /// pair — until the piece's raw time reaches the budget; then the
    /// piece closes and the next item opens a new one.
    pub fn time_items<T>(
        &mut self,
        n: usize,
        kind: impl Fn(usize) -> RefKind,
        mut f: impl FnMut(usize) -> T,
    ) -> (Vec<T>, Vec<Sample>) {
        let mut outs = Vec::with_capacity(n);
        let mut samples = Vec::with_capacity(n);
        let mut piece: Vec<(usize, u64, u64)> = Vec::new();
        let mut before = self.leading_ref();
        let mut piece_raw = 0u64;
        for i in 0..n {
            let wall = Instant::now();
            let t0 = self.clock.now();
            outs.push(f(i));
            let t1 = self.clock.now();
            let raw = t1.saturating_sub(t0);
            piece.push((i, raw, wall.elapsed().as_nanos() as u64));
            piece_raw += raw;
            if piece_raw >= self.budget_ns || i + 1 == n {
                if piece.len() == 1 && raw > self.budget_ns {
                    self.long_pieces += 1;
                }
                let after = self.take_ref();
                let vector = calibration_factor(self.nominal, RefKind::Vector, before, after);
                let mixed = calibration_factor(self.nominal, RefKind::Mixed, before, after);
                samples.extend(piece.drain(..).map(|(i, raw_ns, wall_ns)| {
                    let (ref_ns, factor) = match kind(i) {
                        RefKind::Vector => vector,
                        RefKind::Mixed => mixed,
                    };
                    Sample { raw_ns, wall_ns, ref_ns, factor, factors: [vector.1, mixed.1] }
                }));
                before = after;
                piece_raw = 0;
            }
        }
        (outs, samples)
    }

    /// Forgets the trailing reference read, so the next piece takes a
    /// fresh leading one (call after untimed work between pieces).
    pub fn break_chain(&mut self) {
        self.last_ref = None;
    }

    /// Every reference read so far.
    pub fn refs(&self) -> &[RefRead] {
        &self.refs
    }

    /// Pieces that were a single item longer than the budget.
    pub fn long_pieces(&self) -> usize {
        self.long_pieces
    }

    /// The nominal reference times.
    pub fn nominal(&self) -> Nominal {
        self.nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted clock: each `now()` returns the next timestamp, each
    /// reference read the next scripted `(vector, scalar)` pair.
    struct FakeClock {
        times: std::vec::IntoIter<u64>,
        refs: std::vec::IntoIter<(u64, u64)>,
    }

    impl FakeClock {
        fn new(times: Vec<u64>, refs: Vec<(u64, u64)>) -> Self {
            Self { times: times.into_iter(), refs: refs.into_iter() }
        }
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> u64 {
            self.times.next().expect("scripted time")
        }
        fn reference(&mut self) -> RefRead {
            let (vector, scalar) = self.refs.next().expect("scripted reference");
            RefRead { vector, scalar }
        }
    }

    const NOM: Nominal = Nominal { vector_ns: 100.0, mixed_ns: 200.0 };

    #[test]
    fn calibration_scales_by_nominal_over_mean_reference() {
        let before = RefRead { vector: 150, scalar: 50 };
        let after = RefRead { vector: 250, scalar: 150 };
        // Vector: mean(150, 250) = 200 against 100 nominal.
        assert_eq!(calibration_factor(NOM, RefKind::Vector, before, after), (200.0, 0.5));
        // Mixed: mean(200, 400) = 300 against 200 nominal.
        let (mean, factor) = calibration_factor(NOM, RefKind::Mixed, before, after);
        assert_eq!(mean, 300.0);
        assert!((factor - 2.0 / 3.0).abs() < 1e-12);
        // A piece that ran while the core was twice as slow as nominal
        // is halved.
        let s = Sample {
            raw_ns: 1_000,
            wall_ns: 1_000,
            ref_ns: 200.0,
            factor: 0.5,
            factors: [0.5, 0.5],
        };
        assert_eq!(s.calibrated_ns(), 500.0);
    }

    #[test]
    fn one_piece_uses_its_own_reference_pair() {
        let clock = FakeClock::new(vec![10, 40], vec![(60, 40), (240, 60)]);
        let mut meter = Meter::new(clock, NOM, 1_000);
        let (_, s) = meter.time(|| ());
        assert_eq!(s.raw_ns, 30);
        assert_eq!(s.ref_ns, 200.0); // mixed: mean(100, 300)
        assert!((s.calibrated_ns() - 30.0).abs() < 1e-9);
        assert_eq!(s.factors, [100.0 / 150.0, 1.0]);
        assert_eq!(meter.refs().len(), 2);
    }

    #[test]
    fn items_split_into_pieces_at_the_budget_and_keep_their_kind() {
        // Four items of 400 ns under a 1000 ns budget: the piece closes
        // after the third item (1200 ≥ 1000), the fourth opens a new
        // one. Reads: before, mid, end.
        let times = vec![0, 400, 400, 800, 800, 1200, 1200, 1600];
        let clock = FakeClock::new(times, vec![(100, 100), (100, 100), (300, 500)]);
        let mut meter = Meter::new(clock, NOM, 1_000);
        let kind = |i: usize| if i.is_multiple_of(2) { RefKind::Vector } else { RefKind::Mixed };
        let (outs, samples) = meter.time_items(4, kind, |i| i);
        assert_eq!(outs, vec![0, 1, 2, 3]);
        assert_eq!(samples.len(), 4);
        // First piece: vector mean 100 (factor 1), mixed mean 200 (1).
        for s in &samples[..3] {
            assert_eq!(s.calibrated_ns(), 400.0);
        }
        assert_eq!(samples[0].ref_ns, 100.0);
        assert_eq!(samples[1].ref_ns, 200.0);
        // Second piece shares the middle read: mixed mean(200, 800).
        assert_eq!(samples[3].ref_ns, 500.0);
        assert_eq!(samples[3].calibrated_ns(), 160.0);
        assert_eq!(meter.refs().len(), 3, "pieces share their boundary read");
        assert_eq!(meter.long_pieces(), 0);
    }

    #[test]
    fn an_unsplittable_item_over_budget_is_counted() {
        let clock = FakeClock::new(vec![0, 5_000], vec![(100, 100), (100, 100)]);
        let mut meter = Meter::new(clock, NOM, 1_000);
        let (_, s) = meter.time(|| ());
        assert_eq!(s.calibrated_ns(), 5_000.0);
        assert_eq!(meter.long_pieces(), 1);
    }

    #[test]
    fn summed_samples_keep_the_calibrated_total() {
        let a =
            Sample { raw_ns: 100, wall_ns: 110, ref_ns: 200.0, factor: 0.5, factors: [0.5, 1.0] };
        let b =
            Sample { raw_ns: 300, wall_ns: 310, ref_ns: 100.0, factor: 1.0, factors: [1.0, 1.0] };
        let s = Sample::sum(&[a, b]);
        assert_eq!(s.raw_ns, 400);
        assert_eq!(s.wall_ns, 420);
        assert!((s.calibrated_ns() - 350.0).abs() < 1e-9);
        assert!((s.ref_ns - 125.0).abs() < 1e-9);
        assert!((s.factors[0] - 0.875).abs() < 1e-12);
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let mut clock = CpuClock;
        let a = clock.now();
        std::hint::black_box(reference_scalar(200_000));
        assert!(clock.now() > a);
        let r = clock.reference();
        assert!(r.vector > 0 && r.scalar > 0);
    }
}
