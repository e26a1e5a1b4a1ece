//! DRAM bandwidth contention model.
//!
//! Every resident block carries a nominal bandwidth demand (bytes it moves
//! divided by its uncontended duration). When the sum of demands across the
//! device exceeds peak bandwidth, newly placed blocks are slowed by the
//! over-subscription factor. The factor is fixed at block start (durations
//! of already-running blocks are not retroactively stretched) — a standard
//! DES simplification that keeps the event count linear in blocks while
//! still making over-parallelization unprofitable, which is the behaviour
//! GLP4NN's analytical model must reproduce / avoid.
//!
//! # The demand residue drifts, so a memo hit carries a program
//!
//! The engine places a burst's demand exactly (`demand · n`) but retires it
//! as `demand_milli / 1000`, rounded to a milli-byte/s, so an idle device
//! keeps a small residue that changes with every placement and never
//! returns to earlier bits. Burst durations read the factor, so making the
//! two agree would move timelines and every digest; it waits for a
//! re-baseline (`place_and_retire_round_differently_so_the_residue_drifts`
//! pins the asymmetry). So the replay memo does not key on the residue: a
//! recording keeps its [`Residue`] program, the `place`/`retire` amounts in
//! order, and a hit must show that the recorded factors, or the burst
//! durations they gave, come out again from the current demand.
//!
//! Every change of the demand is one `step`, `(d + x).max(0.0)`: `place`
//! adds `x ≥ 0` (the clamp never fires) and `retire` adds `x = −a` (IEEE 754
//! rounds `d − a` and `d + (−a)` alike). Folding `step` over the program
//! therefore computes the tracker's own bits.
//!
//! # Proving a hit from a bound
//!
//! A hit does not fold its program. It proves from an upper bound `hi` of
//! the current demand `D₀ ∈ [0, hi]` that folding would accept, in O(1):
//!
//! - **Lower side.** `d ↦ (d + x).max(0.0)` is monotone in `d` (rounding to
//!   nearest is), so the walk `w_t` of the program from 0, computed once
//!   per recording, is at most the walk `D_t` from `D₀` at every op.
//! - **Upper side.** `step` is 1-Lipschitz in exact arithmetic and each
//!   rounding errs by at most `u·(|D_t + x| + |w_t + x|) ≤ 2u·M` with
//!   `M = hi + max_t w_t + ε`, so `D_t ≤ w_t + hi + ε` with
//!   `ε = 2n·u·M/(1 − 2n·u)` for `n` ops. `Bound::eps` takes
//!   `4(n + 2)·u·(hi + max_t w_t)`: twice that, plus room for the rounding
//!   of the comparison and of the new `hi` (an addition never underflows,
//!   so the relative bound holds down to 0).
//! - **Durations.** A burst's `burst_ns(t_c, t_m_base · factor(D))` is
//!   monotone in `D`, so if a placement recorded past peak keeps every
//!   duration at both ends of `[w_j, w_j + hi + ε]` it keeps them between.
//!   `B_j`, the largest demand at which placement `j` keeps them, is
//!   estimated from the ceiling's edge and verified at that endpoint with
//!   the real `burst_ns` (bisected down to `w_j` where the estimate
//!   overshoots).
//! - **Headroom.** One scalar per recording, computed on its first hit
//!   attempt: `H = min(peak − max w_t over the placements recorded at
//!   factor 1, min_j (B_j − w_j))`, each difference rounded down; `−∞` if a
//!   duration already fails at `w_j`.
//! - **Per hit.** A hit is `hi + ε ≤ H`. It then pushes its program onto a
//!   pending list and raises `hi` to `hi + w_n + ε`, which bounds the demand
//!   after it. Otherwise the pending list is folded (`hi` is then the exact
//!   demand) and the program is re-run exactly from it, as the fallback:
//!   `replay` checks every factor, or the durations, op by op, and returns
//!   the demand it would leave. `check` answers and `commit` applies, so a
//!   fabric hit checks every device before it writes any.
//!
//! The tests take the steps in turn: the interval walked from exactly `hi`
//! (`the_walk_from_hi_stays_inside_the_interval`), the verified `B_j`
//! (`a_headroom_endpoint_keeps_every_duration`), a headroom one ulp short
//! and a duration on its ceiling's edge, the bound's rise per hit, and a
//! proven hit being one the exact re-run accepts, on the same bits
//! (`a_proven_hit_is_an_exact_hit`). Debug builds check at every fold that
//! the bound was not below the demand.
//!
//! # The lazy fold
//!
//! The pending programs are folded in order, to the DES's exact bits, only
//! when something reads the demand: `place`, `retire`, [`demand`], the
//! start of a recording, and a hit whose bound fails. The exact demand is
//! private and every reader folds first, so no bits can be read while a
//! program is pending. A warm loop made only of hits never folds.
//!
//! [`demand`]: BandwidthTracker::demand

use crate::device::DeviceProps;
use crate::SimTime;
use std::sync::{Arc, OnceLock};

/// Tracks aggregate bandwidth demand of currently-executing blocks.
#[derive(Debug, Clone)]
pub struct BandwidthTracker {
    peak_bytes_per_s: f64,
    /// The demand before `pending` (module docs, "The lazy fold").
    demand_bytes_per_s: f64,
    /// Programs of hits proven from `hi`, oldest first, not yet folded.
    pending: Vec<Arc<Residue>>,
    /// An upper bound of the demand after `pending`, while it is not empty.
    hi: f64,
    /// The last [`check`](Self::check)'s answer, until it is committed.
    checked: Option<Hit>,
    rec: Option<Residue>,
}

/// A burst's duration in ns from its compute and memory times in s.
pub(crate) fn burst_ns(t_c: f64, t_m: f64) -> SimTime {
    (t_c.max(t_m) * 1e9 + 1000.0).ceil() as SimTime
}

/// The tracker arithmetic of one recorded replay (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Residue {
    /// `f64` bits: a placed amount, or a retired amount negated.
    ops: Vec<u64>,
    /// Per placement past peak: `(index in ops, factor, t_m_base, end of its
    /// bursts)`, `t_m = t_m_base · factor`; bursts follow the last check's.
    checks: Vec<(usize, f64, f64, usize)>,
    /// `(t_c, duration)` of each burst duration computed under a check.
    bursts: Vec<(f64, SimTime)>,
    /// Computed on the first hit attempt, under the peak it was recorded
    /// under: a device's memo is its own, and a fabric hit compares models
    /// first.
    bound: OnceLock<Bound>,
}

/// What a hit reads of a recording (module docs, "Proving a hit from a
/// bound").
#[derive(Debug, Clone, Copy)]
struct Bound {
    /// `H`: a hit needs `hi + ε ≤ headroom`.
    headroom: f64,
    /// `max_t w_t` and `w_n` of the walk from 0.
    max_w: f64,
    end: f64,
    /// `4(n + 2)·u`, with `u = f64::EPSILON / 2`.
    rel: f64,
}

/// How an accepted hit's program applies.
#[derive(Debug, Clone, Copy)]
enum Hit {
    /// Proven from the bound; the bound after it.
    Bound(f64),
    /// Re-run exactly; the demand after it.
    Exact(f64),
}

impl BandwidthTracker {
    /// Tracker for a device's peak DRAM bandwidth.
    pub fn new(dev: &DeviceProps) -> Self {
        BandwidthTracker {
            peak_bytes_per_s: dev.mem_bw_gbps * 1e9,
            demand_bytes_per_s: 0.0,
            pending: Vec::new(),
            hi: 0.0,
            checked: None,
            rec: None,
        }
    }

    /// Register a block's demand; returns the slowdown factor (≥ 1) to apply
    /// to that block's nominal duration.
    pub fn place(&mut self, demand: f64) -> f64 {
        self.fold();
        self.demand_bytes_per_s = step(self.demand_bytes_per_s, demand);
        let factor = factor(self.demand_bytes_per_s, self.peak_bytes_per_s);
        if let Some(rec) = &mut self.rec {
            rec.ops.push(demand.to_bits());
            if factor != 1.0 {
                rec.checks
                    .push((rec.ops.len() - 1, factor, 0.0, rec.bursts.len()));
            }
        }
        factor
    }

    /// Remove a retired block's demand.
    pub fn retire(&mut self, demand: f64) {
        self.fold();
        self.demand_bytes_per_s = step(self.demand_bytes_per_s, -demand);
        if let Some(rec) = &mut self.rec {
            rec.ops.push((-demand).to_bits());
        }
    }

    /// Current aggregate demand in bytes/s.
    pub fn demand(&mut self) -> f64 {
        self.fold();
        self.demand_bytes_per_s
    }

    /// Start (`true`) or stop recording; returns what was being recorded.
    pub(crate) fn record(&mut self, on: bool) -> Option<Residue> {
        self.fold();
        let mut rec = std::mem::replace(&mut self.rec, on.then(Residue::default))?;
        rec.ops.shrink_to_fit();
        Some(rec)
    }

    /// Record a burst's `dur = burst_ns(t_c, t_m_base · factor)` if factor > 1.
    pub(crate) fn note_burst(&mut self, t_m_base: f64, t_c: f64, dur: SimTime) {
        if let Some(rec) = &mut self.rec {
            if let Some(check) = rec.checks.last_mut().filter(|c| c.0 + 1 == rec.ops.len()) {
                (check.2, check.3) = (t_m_base, check.3 + 1);
                rec.bursts.push((t_c, dur));
            }
        }
    }

    /// Whether `rec`'s replay would repeat from the current demand: proven
    /// from the bound in O(1), or else re-run exactly after folding the
    /// pending programs (module docs). Changes nothing but that fold; the
    /// answer waits for [`commit`](Self::commit).
    pub(crate) fn check(&mut self, rec: &Residue) -> bool {
        let (hi, b) = (self.hi(), rec.bound(self.peak_bytes_per_s));
        let eps = b.eps(hi);
        self.checked = if hi + eps <= b.headroom {
            Some(Hit::Bound(hi + b.end + eps))
        } else {
            self.fold();
            self.replay(rec).map(Hit::Exact)
        };
        self.checked.is_some()
    }

    /// Apply the replay of `rec` that [`check`](Self::check) just accepted.
    pub(crate) fn commit(&mut self, rec: &Arc<Residue>) {
        match self
            .checked
            .take()
            .expect("commit follows an accepting check")
        {
            Hit::Bound(hi) => {
                self.pending.push(Arc::clone(rec));
                self.hi = hi;
            }
            Hit::Exact(d) => self.demand_bytes_per_s = d,
        }
    }

    /// The bound a hit is proven from: the exact demand when nothing is
    /// pending.
    fn hi(&self) -> f64 {
        if self.pending.is_empty() {
            self.demand_bytes_per_s
        } else {
            self.hi
        }
    }

    /// Fold the pending programs into the demand, in order.
    fn fold(&mut self) {
        if !self.pending.is_empty() {
            self.fold_pending();
        }
    }

    /// [`fold`](Self::fold)'s loop, kept out of line so the DES's
    /// `place`/`retire` inline only the length test.
    #[inline(never)]
    fn fold_pending(&mut self) {
        let mut d = self.demand_bytes_per_s;
        for rec in self.pending.drain(..) {
            for &op in &rec.ops {
                d = step(d, f64::from_bits(op));
            }
        }
        debug_assert!(
            d <= self.hi,
            "the bound {} is below the demand {d}",
            self.hi
        );
        self.demand_bytes_per_s = d;
    }

    /// Re-run a recorded replay's `place`/`retire` calls from the current
    /// demand in one pass; `Some` of the demand the replay would leave if
    /// every factor comes out bit-equal or, recorded past peak, still gives
    /// every recorded burst duration.
    fn replay(&self, rec: &Residue) -> Option<f64> {
        debug_assert!(self.pending.is_empty());
        let peak = self.peak_bytes_per_s;
        let (mut d, mut ok, mut from, mut first_burst) = (self.demand_bytes_per_s, true, 0, 0);
        // Each check's placement, and the end, closes a run of ops whose
        // placements were recorded at factor 1.
        for check in rec.checks.iter().map(Some).chain([None]) {
            let to = check.map_or(rec.ops.len(), |c| c.0);
            for &op in &rec.ops[from..to] {
                let x = f64::from_bits(op);
                d = step(d, x);
                ok &= x.is_sign_negative() | (factor(d, peak) == 1.0);
            }
            let Some(&(at, recorded, t_m_base, end)) = check else {
                break;
            };
            d = step(d, f64::from_bits(rec.ops[at]));
            let f = factor(d, peak);
            let bursts = &rec.bursts[std::mem::replace(&mut first_burst, end)..end];
            ok &= f.to_bits() == recorded.to_bits() || keeps_durations(bursts, t_m_base, f);
            from = at + 1;
        }
        ok.then_some(d)
    }
}

impl Residue {
    /// The recording's [`Bound`], computed on first use.
    fn bound(&self, peak: f64) -> &Bound {
        self.bound.get_or_init(|| {
            let (mut w, mut max_w, mut max_unchecked) = (0.0, 0.0f64, 0.0f64);
            let (mut room, mut from, mut first_burst) = (f64::INFINITY, 0, 0);
            for check in self.checks.iter().map(Some).chain([None]) {
                let to = check.map_or(self.ops.len(), |c| c.0);
                for &op in &self.ops[from..to] {
                    let x = f64::from_bits(op);
                    w = step(w, x);
                    if !x.is_sign_negative() {
                        max_unchecked = max_unchecked.max(w);
                    }
                }
                let Some(&(at, _, t_m_base, end)) = check else {
                    break;
                };
                w = step(w, f64::from_bits(self.ops[at]));
                let bursts = &self.bursts[std::mem::replace(&mut first_burst, end)..end];
                room = room.min(duration_room(bursts, t_m_base, w, peak));
                max_w = max_w.max(w);
                from = at + 1;
            }
            let n = self.ops.len() as f64;
            Bound {
                headroom: room.min((peak - max_unchecked).next_down()),
                max_w: max_w.max(max_unchecked),
                end: w,
                rel: 2.0 * (n + 2.0) * f64::EPSILON,
            }
        })
    }
}

impl Bound {
    /// `ε` for a walk from a demand at most `hi` (module docs).
    fn eps(&self, hi: f64) -> f64 {
        self.rel * (self.max_w + hi)
    }
}

/// One change of the demand `d`: a placement (`x ≥ 0`) or a retirement.
fn step(d: f64, x: f64) -> f64 {
    (d + x).max(0.0)
}

/// The over-subscription factor at demand `d`: exactly 1.0 up to `peak`.
fn factor(d: f64, peak: f64) -> f64 {
    if d <= peak {
        1.0
    } else {
        d / peak
    }
}

/// Whether a placement's recorded `(t_c, duration)` bursts come out again
/// at `factor`.
fn keeps_durations(bursts: &[(f64, SimTime)], t_m_base: f64, factor: f64) -> bool {
    (bursts.iter()).all(|&(t_c, dur)| burst_ns(t_c, t_m_base * factor) == dur)
}

/// `B − w`, rounded down, where `B` is the largest demand from `w` up at
/// which the bursts keep their durations, verified with the real
/// `burst_ns`; `−∞` if they fail at `w`.
fn duration_room(bursts: &[(f64, SimTime)], t_m_base: f64, w: f64, peak: f64) -> f64 {
    let holds = |d: f64| keeps_durations(bursts, t_m_base, factor(d, peak));
    if !holds(w) {
        return f64::NEG_INFINITY;
    }
    // A duration `ceil(max(t_c, t_m)·1e9 + 1000)` holds while `t_m` stays
    // at most its ceiling's edge `(dur − 1000)/1e9`.
    let edge = (bursts.iter())
        .map(|&(_, dur)| (dur as f64 - 1000.0) / 1e9)
        .fold(f64::INFINITY, f64::min);
    let estimate = (peak * (edge / t_m_base)).max(w);
    // Where the estimate overshoots, bisect the bits between `w` and it
    // (both are non-negative, so their bits order as they do).
    let (mut lo, mut hi) = (w.to_bits(), estimate.to_bits());
    if holds(estimate) {
        lo = hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(f64::from_bits(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (f64::from_bits(lo) - w).next_down()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

    impl Residue {
        /// Recorded placements past peak bandwidth.
        pub(crate) fn oversubscribed(&self) -> usize {
            self.checks.len()
        }
    }

    impl BandwidthTracker {
        /// Programs proven from the bound and not yet folded.
        pub(crate) fn pending(&self) -> usize {
            self.pending.len()
        }

        /// Check `rec` and apply the answer; `Some` if it was by bound.
        fn hit(&mut self, rec: &Arc<Residue>) -> Option<bool> {
            let lazily = self
                .check(rec)
                .then_some(matches!(self.checked, Some(Hit::Bound(_))));
            if lazily.is_some() {
                self.commit(rec);
            }
            lazily
        }
    }

    /// Run `program` on `t`, negative amounts retiring; the factors `place`
    /// returned.
    fn run(t: &mut BandwidthTracker, program: &[f64]) -> Vec<f64> {
        let mut factors = Vec::new();
        for &x in program {
            if x.is_sign_negative() {
                t.retire(-x);
            } else {
                factors.push(t.place(x));
            }
        }
        factors
    }

    /// `program` recorded from `start` by a fresh tracker of `dev`.
    fn record(dev: &DeviceProps, start: f64, program: &[f64]) -> Arc<Residue> {
        let mut t = BandwidthTracker::new(dev);
        t.place(start);
        t.record(true);
        run(&mut t, program);
        Arc::new(t.record(false).expect("recording"))
    }

    /// A fresh tracker of `dev` whose demand is `start`.
    fn at(dev: &DeviceProps, start: f64) -> BandwidthTracker {
        let mut t = BandwidthTracker::new(dev);
        t.place(start);
        t
    }

    #[test]
    fn no_slowdown_under_subscription() {
        let dev = DeviceProps::p100(); // 549 GB/s
        let mut t = BandwidthTracker::new(&dev);
        assert_eq!(t.place(100.0e9), 1.0);
        assert_eq!(t.place(200.0e9), 1.0);
        assert!((t.demand() - 300.0e9).abs() < 1.0);
    }

    #[test]
    fn slowdown_proportional_to_oversubscription() {
        let dev = DeviceProps::p100();
        let mut t = BandwidthTracker::new(&dev);
        t.place(549.0e9);
        let f = t.place(549.0e9); // 2x peak
        assert!((f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn retire_restores_capacity() {
        let dev = DeviceProps::k40c(); // 288 GB/s
        let mut t = BandwidthTracker::new(&dev);
        t.place(288.0e9);
        t.place(288.0e9);
        t.retire(288.0e9);
        assert_eq!(factor(t.demand(), 288.0e9), 1.0);
    }

    #[test]
    fn retire_never_goes_negative() {
        let dev = DeviceProps::k40c();
        let mut t = BandwidthTracker::new(&dev);
        t.place(1.0e9);
        t.retire(5.0e9);
        assert_eq!(t.demand(), 0.0);
    }

    #[test]
    fn place_and_retire_round_differently_so_the_residue_drifts() {
        // A burst's `demand · n` and the `demand_milli / 1000` the engine
        // retires it with (module docs). Retiring the exact amount would
        // leave 0.0 and move every digest.
        let amount = 123_456_789.000_4_f64;
        let milli = (amount * 1000.0).round() as u64;
        let mut t = BandwidthTracker::new(&DeviceProps::p100());
        let mut residues = Vec::new();
        for _ in 0..4 {
            t.place(amount);
            t.retire(milli as f64 / 1000.0);
            residues.push(t.demand().to_bits());
        }
        assert!(t.demand() > 0.0, "the retirement no longer rounds");
        residues.dedup();
        assert_eq!(residues.len(), 4, "an idle device repeats a residue");
    }

    #[test]
    fn the_one_pass_replay_lands_on_the_trackers_bits_at_zero_and_at_peak() {
        let dev = DeviceProps::k40c(); // 288 GB/s
        let peak = dev.mem_bw_gbps * 1e9;
        let programs: [&[f64]; 2] = [
            // Retires more than it placed: the demand clamps at zero.
            &[100.0e9 + 0.3, -150.0e9, 50.0e9 + 0.7, -(20.0e9 + 0.2)],
            // Lands exactly on peak, where the factor is still 1.0.
            &[peak / 4.0, 0.75 * peak, -peak / 4.0, 5.0e9, -0.75 * peak],
        ];
        for program in programs {
            let rec = record(&dev, 0.0, program);
            assert!(rec.checks.is_empty(), "every recorded factor is 1.0");
            for start in [0.0, 1.0e-3, 12_345.678_9, 1.0e9] {
                let mut des = at(&dev, start);
                let memo = des.clone();
                let holds = run(&mut des, program).iter().all(|&f| f == 1.0);
                let want = holds.then(|| des.demand().to_bits());
                assert_eq!(memo.replay(&rec).map(f64::to_bits), want, "{start}");
            }
        }
    }

    #[test]
    fn a_replayed_residue_program_ends_where_the_tracker_would() {
        let dev = DeviceProps::k40c(); // 288 GB/s
        let (big, small) = (200.0e9 + 0.000_3, 150.0e9 + 0.000_2);
        let retire = |x: f64| (x * 1000.0).round() / 1000.0;
        let episode = |t: &mut BandwidthTracker| {
            let f1 = t.place(big);
            let f2 = t.place(small); // 350 GB/s: oversubscribed
            t.note_burst(2.0e-6, 1.0e-6, burst_ns(1.0e-6, 2.0e-6 * f2));
            t.retire(retire(big));
            t.retire(retire(small));
            (f1, f2)
        };
        let mut recorder = BandwidthTracker::new(&dev);
        episode(&mut recorder);
        recorder.record(true);
        episode(&mut recorder);
        let rec = recorder.record(false).expect("recording");
        assert_eq!(rec.ops.len(), 4);
        assert_eq!(rec.checks.len(), 1, "only the placement past peak");
        assert_eq!(rec.bursts.len(), 1);

        // From another residue, the program lands on the DES's bits.
        let mut des = recorder.clone();
        episode(&mut des);
        let replayed = recorder.replay(&rec).expect("holds");
        assert_eq!(replayed.to_bits(), des.demand().to_bits());
        assert_ne!(
            replayed.to_bits(),
            recorder.demand().to_bits(),
            "the residue moved"
        );

        // A factor past peak where the recording had none, or one that no
        // longer yields the recorded duration, is a miss.
        for stray in [100.0e9, 50.0e9] {
            assert_eq!(at(&dev, stray).replay(&rec), None, "{stray}");
        }
    }

    /// Placements and (milli-rounded) retirements; a negative amount
    /// retires.
    fn arb_program() -> impl Strategy<Value = Vec<f64>> {
        let op = (proptest::bool::ANY, 1.0e3f64..3.0e11).prop_map(|(place, x)| {
            if place {
                x
            } else {
                -(x * 1000.0).round() / 1000.0
            }
        });
        proptest::collection::vec(op, 1..40)
    }

    proptest::proptest! {
        /// The two sides of the interval (module docs), walked from exactly
        /// `hi`, the edge the bound must cover: the walk from 0 is below the
        /// walk from `hi` at every op, and `hi + ε` above it.
        #[test]
        fn the_walk_from_hi_stays_inside_the_interval(
            program in arb_program(),
            hi in (0usize..3, 0.0f64..1.0).prop_map(|(s, x)| x * [1.0, 1.0e4, 1.0e12][s]),
        ) {
            let rec = Residue {
                ops: program.iter().map(|x| x.to_bits()).collect(),
                ..Residue::default()
            };
            let eps = rec.bound(f64::INFINITY).eps(hi);
            let (mut w, mut d) = (0.0, hi);
            for &x in &program {
                (w, d) = (step(w, x), step(d, x));
                proptest::prop_assert!(w <= d, "{w} > {d}");
                proptest::prop_assert!(d <= w + hi + eps, "{d} > {w} + {hi} + {eps}");
            }
        }

    }

    proptest::proptest! {
        /// A hit proven from the bound is one the exact re-run accepts, and
        /// its lazy fold lands on the bits the DES would leave. Programs
        /// are recorded from a random residue, some with placements past
        /// peak and bursts near their ceiling's edge; hits start from
        /// another one.
        #[test]
        fn a_proven_hit_is_an_exact_hit(
            program in arb_program(),
            bursts in proptest::collection::vec((0.0f64..4.0e-6, 1.0e-7f64..4.0e-6), 1..4),
            from in 0.0f64..2.0e11,
            to in 0.0f64..4.0e11,
        ) {
            let dev = DeviceProps::k40c();
            // The engine's pairing: each placement notes its bursts.
            let episode = |t: &mut BandwidthTracker| {
                for &x in &program {
                    if x.is_sign_negative() {
                        t.retire(-x);
                        continue;
                    }
                    let f = t.place(x);
                    for &(t_c, t_m_base) in &bursts {
                        t.note_burst(t_m_base, t_c, burst_ns(t_c, t_m_base * f));
                    }
                }
            };
            let mut recorder = at(&dev, from);
            recorder.record(true);
            episode(&mut recorder);
            let rec = Arc::new(recorder.record(false).expect("recording"));
            let mut des = at(&dev, to);
            let exact = des.replay(&rec).map(f64::to_bits);
            let mut memo = des.clone();
            let accepted = memo.check(&rec);
            match memo.checked {
                Some(Hit::Bound(_)) => proptest::prop_assert!(exact.is_some(), "proven, not exact"),
                Some(Hit::Exact(d)) => proptest::prop_assert_eq!(Some(d.to_bits()), exact),
                None => proptest::prop_assert_eq!(exact, None),
            }
            if accepted {
                memo.commit(&rec);
                episode(&mut des);
                proptest::prop_assert_eq!(memo.demand().to_bits(), des.demand().to_bits());
            }
        }

    }

    proptest::proptest! {
        /// `B_j`, the top of a past-peak placement's interval, keeps every
        /// recorded duration: the estimate from the ceiling's edge is
        /// checked with the real `burst_ns`.
        #[test]
        fn a_headroom_endpoint_keeps_every_duration(
            bursts in proptest::collection::vec((0.0f64..4.0e-6, 1.0e-7f64..4.0e-6), 1..3),
            over in 1.0f64..4.0,
        ) {
            let dev = DeviceProps::p100();
            let peak = dev.mem_bw_gbps * 1e9;
            let mut t = BandwidthTracker::new(&dev);
            t.record(true);
            let d = peak * over;
            let f = t.place(d);
            let t_m_base = bursts[0].1;
            for &(t_c, _) in &bursts {
                t.note_burst(t_m_base, t_c, burst_ns(t_c, t_m_base * f));
            }
            let rec = t.record(false).expect("recording");
            let h = rec.bound(peak).headroom;
            proptest::prop_assert!(h > f64::NEG_INFINITY, "the durations hold where recorded");
            if h >= 0.0 {
                proptest::prop_assert!(keeps_durations(&rec.bursts, t_m_base, factor(d + h, peak)));
            }
        }
    }

    #[test]
    fn hits_raise_the_bound_until_the_exact_fallback_refuses() {
        // Places 0.4 of peak and retires none of it: `w_n` is 0.4 peak.
        let dev = DeviceProps::p100();
        let peak = dev.mem_bw_gbps * 1e9;
        let program = [0.1 * peak, 0.3 * peak];
        let rec = record(&dev, 0.0, &program);
        let (mut t, mut des) = (BandwidthTracker::new(&dev), BandwidthTracker::new(&dev));
        assert_eq!(t.hit(&rec), Some(true));
        assert_eq!(t.hit(&rec), Some(true), "0.8 of peak after it");
        assert!(t.hi() >= 0.8 * peak);
        assert_eq!(t.pending(), 2);
        // The third would place past peak where the recording did not.
        assert_eq!(t.hit(&rec), None);
        run(&mut des, &program);
        run(&mut des, &program);
        assert_eq!(
            (t.pending(), t.demand().to_bits()),
            (0, des.demand().to_bits())
        );
    }

    #[test]
    fn a_headroom_one_ulp_short_is_refused_and_decided_exactly() {
        let dev = DeviceProps::k40c();
        let program = [100.0e9 + 0.3, -(100.0e9 + 0.301)];
        let rec = record(&dev, 0.0, &program);
        let start = 12_345.678_9;
        let real = *rec.bound(dev.mem_bw_gbps * 1e9);
        let edge = start + real.eps(start);
        let with_headroom = |headroom| {
            Arc::new(Residue {
                bound: OnceLock::from(Bound { headroom, ..real }),
                ..Residue::clone(&rec)
            })
        };
        let mut des = at(&dev, start);
        let want = des.replay(&rec).expect("the re-run holds");
        for (headroom, lazily) in [(edge, true), (edge.next_down(), false)] {
            let rec = with_headroom(headroom);
            let mut t = at(&dev, start);
            assert!(t.check(&rec), "the exact re-run holds");
            match t.checked {
                Some(Hit::Bound(_)) => assert!(lazily, "{headroom}"),
                Some(Hit::Exact(d)) => {
                    assert!(!lazily, "{headroom}");
                    assert_eq!(d.to_bits(), want.to_bits());
                }
                None => unreachable!(),
            }
            assert_eq!(t.hit(&rec), Some(lazily));
            assert_eq!(t.demand().to_bits(), want.to_bits());
        }
        run(&mut des, &program);
        assert_eq!(des.demand().to_bits(), want.to_bits());
    }

    #[test]
    fn a_duration_on_its_ceiling_edge_refuses_the_lazy_path() {
        // Twice peak gives factor 2.0 exactly, and 1 µs of memory time at
        // factor 2 is 2000 ns: the duration 3000 sits on its ceiling's edge,
        // so any more demand lengthens it.
        let dev = DeviceProps::p100();
        let peak = dev.mem_bw_gbps * 1e9;
        let t_m_base = 1.0e-6;
        assert_eq!((t_m_base * 2.0) * 1e9 + 1000.0, 3000.0);
        let mut recorder = BandwidthTracker::new(&dev);
        recorder.record(true);
        assert_eq!(recorder.place(2.0 * peak), 2.0);
        recorder.note_burst(t_m_base, 0.0, burst_ns(0.0, t_m_base * 2.0));
        recorder.retire(2.0 * peak);
        let rec = Arc::new(recorder.record(false).expect("recording"));
        assert!(rec.bound(peak).headroom < 0.0);
        let mut idle = BandwidthTracker::new(&dev);
        assert_eq!(idle.hit(&rec), Some(false), "the exact re-run decides");
        assert_eq!(at(&dev, 1.0).hit(&rec), None, "3001 ns from 1 B/s more");
    }
}
