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
//! # The demand residue drifts
//!
//! The engine places a burst's demand exactly (`demand · n`) but retires it
//! as `demand_milli / 1000`, rounded to a milli-byte/s, so an idle device
//! keeps a small residue that changes with every placement and never
//! returns to earlier bits. Burst durations read the factor, so making the
//! two agree would move timelines and every digest; it waits for a
//! re-baseline (`place_and_retire_round_differently_so_the_residue_drifts`
//! pins the asymmetry). It is why the replay memo does not key on the
//! residue but re-runs a recorded [`Residue`] program from the current one.
//!
//! # One step, so the program is bit-identical
//!
//! Every change of the demand is one `step`, `(d + x).max(0.0)`: `place`
//! adds `x ≥ 0` (the clamp never fires) and `retire` adds `x = −a` (IEEE 754
//! rounds `d − a` and `d + (−a)` alike). The program stores each `x`, so
//! `replay` folds `step` over it on a local demand in one pass, computing
//! the tracker's own bits, and only accumulates whether each placement's
//! `factor` matches the recording; the demand is written back if all did.

use crate::device::DeviceProps;
use crate::SimTime;

/// Tracks aggregate bandwidth demand of currently-executing blocks.
#[derive(Debug, Clone)]
pub struct BandwidthTracker {
    peak_bytes_per_s: f64,
    demand_bytes_per_s: f64,
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
}

impl BandwidthTracker {
    /// Tracker for a device's peak DRAM bandwidth.
    pub fn new(dev: &DeviceProps) -> Self {
        BandwidthTracker {
            peak_bytes_per_s: dev.mem_bw_gbps * 1e9,
            demand_bytes_per_s: 0.0,
            rec: None,
        }
    }

    /// Register a block's demand; returns the slowdown factor (≥ 1) to apply
    /// to that block's nominal duration.
    pub fn place(&mut self, demand: f64) -> f64 {
        self.demand_bytes_per_s = step(self.demand_bytes_per_s, demand);
        let factor = self.factor();
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
        self.demand_bytes_per_s = step(self.demand_bytes_per_s, -demand);
        if let Some(rec) = &mut self.rec {
            rec.ops.push((-demand).to_bits());
        }
    }

    /// Current over-subscription factor (1.0 when demand ≤ peak).
    pub fn factor(&self) -> f64 {
        factor(self.demand_bytes_per_s, self.peak_bytes_per_s)
    }

    /// Current aggregate demand in bytes/s.
    pub fn demand(&self) -> f64 {
        self.demand_bytes_per_s
    }

    /// Start (`true`) or stop recording; returns what was being recorded.
    pub(crate) fn record(&mut self, on: bool) -> Option<Residue> {
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

    /// Re-run a recorded replay's `place`/`retire` calls from the current
    /// demand in one pass (module docs). `true` (the demand left where the
    /// replay would leave it) if every factor comes out bit-equal or,
    /// recorded past peak, still gives every recorded burst duration;
    /// otherwise the demand is left alone.
    pub(crate) fn replay(&mut self, rec: &Residue) -> bool {
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
            ok &= f.to_bits() == recorded.to_bits()
                || bursts
                    .iter()
                    .all(|&(t_c, dur)| burst_ns(t_c, t_m_base * f) == dur);
            from = at + 1;
        }
        if ok {
            self.demand_bytes_per_s = d;
        }
        ok
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

#[cfg(test)]
mod tests {
    use super::*;

    impl Residue {
        /// Recorded placements past peak bandwidth.
        pub(crate) fn oversubscribed(&self) -> usize {
            self.checks.len()
        }
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
        assert!((t.factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retire_never_goes_negative() {
        let dev = DeviceProps::k40c();
        let mut t = BandwidthTracker::new(&dev);
        t.place(1.0e9);
        t.retire(5.0e9);
        assert!(t.demand() >= 0.0);
        assert_eq!(t.factor(), 1.0);
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
        // Negative amounts retire; the factors `place` returned.
        let run = |t: &mut BandwidthTracker, program: &[f64]| {
            let mut factors = Vec::new();
            for &x in program {
                if x.is_sign_negative() {
                    t.retire(-x);
                } else {
                    factors.push(t.place(x));
                }
            }
            factors
        };
        let programs: [&[f64]; 2] = [
            // Retires more than it placed: the demand clamps at zero.
            &[100.0e9 + 0.3, -150.0e9, 50.0e9 + 0.7, -(20.0e9 + 0.2)],
            // Lands exactly on peak, where the factor is still 1.0.
            &[peak / 4.0, 0.75 * peak, -peak / 4.0, 5.0e9, -0.75 * peak],
        ];
        for program in programs {
            let mut recorder = BandwidthTracker::new(&dev);
            recorder.record(true);
            run(&mut recorder, program);
            let rec = recorder.record(false).expect("recording");
            assert!(rec.checks.is_empty(), "every recorded factor is 1.0");
            for start in [0.0, 1.0e-3, 12_345.678_9, 1.0e9] {
                let mut des = BandwidthTracker::new(&dev);
                des.place(start);
                let mut memo = des.clone();
                let holds = run(&mut des, program).iter().all(|&f| f == 1.0);
                assert_eq!(memo.replay(&rec), holds, "{start}");
                let bits = if holds { des.demand() } else { start };
                assert_eq!(memo.demand().to_bits(), bits.to_bits(), "{start}");
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
        let mut memo = recorder.clone();
        episode(&mut des);
        assert!(memo.replay(&rec));
        assert_eq!(memo.demand().to_bits(), des.demand().to_bits());
        assert_ne!(
            memo.demand().to_bits(),
            recorder.demand().to_bits(),
            "the residue moved"
        );

        // A factor past peak where the recording had none, or one that no
        // longer yields the recorded duration, is a miss, and a miss leaves
        // the demand alone.
        for stray in [100.0e9, 50.0e9] {
            let mut loaded = BandwidthTracker::new(&dev);
            loaded.place(stray);
            let before = loaded.demand().to_bits();
            assert!(!loaded.replay(&rec), "{stray}");
            assert_eq!(loaded.demand().to_bits(), before);
        }
    }
}
