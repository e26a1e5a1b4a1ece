//! Fleet configuration: priority classes, autoscaling knobs, fabric
//! presets, and the top-level [`FleetConfig`].

use crate::router::RouterPolicy;
use gpu_sim::{DeviceProps, FabricSpec, LinkProps, SimTime};
use nn::models::{spec_by_name, SpecError, UnknownModelError};
use nn::DispatchMode;
use serve::{BatchPolicy, EngineOptions};

/// One tenant priority class. Class index 0 is the highest priority.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Name shown in reports (e.g. `premium`).
    pub name: String,
    /// Fraction of offered traffic in this class (shares sum to 1).
    pub share: f64,
    /// Relative completion deadline in ns after arrival;
    /// [`SimTime::MAX`] for best-effort (no SLO).
    pub deadline_ns: SimTime,
}

/// A named traffic mix: an ordered list of [`ClassSpec`]s, highest
/// priority first.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityMix {
    /// Mix name shown in reports.
    pub name: String,
    /// Classes, highest priority first. Shares must sum to ~1.
    pub classes: Vec<ClassSpec>,
}

impl PriorityMix {
    /// Validate and build a mix.
    ///
    /// # Panics
    /// Panics if `classes` is empty or shares do not sum to ~1.
    pub fn new(name: &str, classes: Vec<ClassSpec>) -> Self {
        let mix = PriorityMix {
            name: name.to_string(),
            classes,
        };
        if let Err(e) = mix.check() {
            panic!("{e}");
        }
        mix
    }

    /// The mix's own well-formedness: at least one class, shares summing
    /// to ~1 (the fields are public, so a struct literal skips
    /// [`PriorityMix::new`]).
    fn check(&self) -> Result<(), FleetConfigError> {
        if self.classes.is_empty() {
            return Err(FleetConfigError::EmptyMix);
        }
        let total: f64 = self.classes.iter().map(|c| c.share).sum();
        if (total - 1.0).abs() < 1e-9 {
            Ok(())
        } else {
            Err(FleetConfigError::SharesNotOne { total })
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// A premium-heavy mix: 60 % premium (10 ms SLO), 30 % standard
    /// (25 ms SLO), 10 % best-effort.
    pub fn premium_heavy() -> Self {
        PriorityMix::new(
            "premium-heavy",
            vec![
                ClassSpec {
                    name: "premium".into(),
                    share: 0.6,
                    deadline_ns: 10_000_000,
                },
                ClassSpec {
                    name: "standard".into(),
                    share: 0.3,
                    deadline_ns: 25_000_000,
                },
                ClassSpec {
                    name: "besteffort".into(),
                    share: 0.1,
                    deadline_ns: SimTime::MAX,
                },
            ],
        )
    }

    /// A best-effort-heavy mix: 20 % premium (10 ms SLO), 30 % standard
    /// (25 ms SLO), 50 % best-effort — the regime where brownout
    /// shedding of the bulk lane protects the premium SLO.
    pub fn besteffort_heavy() -> Self {
        PriorityMix::new(
            "besteffort-heavy",
            vec![
                ClassSpec {
                    name: "premium".into(),
                    share: 0.2,
                    deadline_ns: 10_000_000,
                },
                ClassSpec {
                    name: "standard".into(),
                    share: 0.3,
                    deadline_ns: 25_000_000,
                },
                ClassSpec {
                    name: "besteffort".into(),
                    share: 0.5,
                    deadline_ns: SimTime::MAX,
                },
            ],
        )
    }
}

/// One segment of a phased offered-load profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// Requests generated in this phase.
    pub num_requests: usize,
    /// Mean arrival rate during the phase (requests per simulated
    /// second).
    pub rate_rps: f64,
}

/// Queue-depth autoscaling with hysteresis. Depth is the mean of
/// `queued + inflight` over active replicas, sampled every controller
/// tick; a scale action needs the watermark crossed for several
/// *consecutive* ticks so transient bursts don't flap the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Replicas at start and the floor for scale-down.
    pub min_replicas: usize,
    /// Ceiling for scale-up (at most the fabric's slot count).
    pub max_replicas: usize,
    /// Scale up when mean depth per active replica exceeds this.
    pub high_watermark: f64,
    /// Scale down when mean depth falls below this.
    pub low_watermark: f64,
    /// Consecutive ticks above the high watermark before scaling up.
    pub up_after: u32,
    /// Consecutive ticks below the low watermark before scaling down.
    pub down_after: u32,
}

impl AutoscaleConfig {
    /// A default controller: hold `min..=max` replicas, scale up past a
    /// mean depth of 12, down below 1, with 2-tick up / 6-tick down
    /// hysteresis (scaling down is the risky direction).
    pub fn new(min_replicas: usize, max_replicas: usize) -> Self {
        assert!(
            min_replicas >= 1 && min_replicas <= max_replicas,
            "need 1 <= min ({min_replicas}) <= max ({max_replicas})"
        );
        AutoscaleConfig {
            min_replicas,
            max_replicas,
            high_watermark: 12.0,
            low_watermark: 1.0,
            up_after: 2,
            down_after: 6,
        }
    }
}

/// A [`FleetConfig`] that [`crate::FleetSim::new`] refuses, instead of
/// panicking deep inside a replica.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetConfigError {
    /// An arrival rate (`rate_rps`, or a load phase's) that is zero,
    /// negative or not finite.
    ArrivalRate(f64),
    /// `queue_capacity` is 0.
    ZeroQueueCapacity,
    /// `policy.max_batch` is 0.
    ZeroMaxBatch,
    /// The fabric has no slot to place a replica on.
    NoSlots,
    /// `autoscale.min_replicas` is 0.
    ZeroMinReplicas,
    /// `autoscale.min_replicas` exceeds `autoscale.max_replicas`.
    MinAboveMax {
        /// The configured floor.
        min: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The priority mix has no class.
    EmptyMix,
    /// The class shares do not sum to 1.
    SharesNotOne {
        /// Their sum.
        total: f64,
    },
    /// The model name does not resolve.
    UnknownModel(UnknownModelError),
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::ArrivalRate(r) => {
                write!(f, "arrival rate must be positive and finite, got {r}")
            }
            FleetConfigError::ZeroQueueCapacity => f.write_str("queue capacity must be positive"),
            FleetConfigError::ZeroMaxBatch => f.write_str("max_batch must be positive"),
            FleetConfigError::NoSlots => f.write_str("the fabric has no slot"),
            FleetConfigError::ZeroMinReplicas => f.write_str("autoscale min_replicas must be >= 1"),
            FleetConfigError::MinAboveMax { min, max } => {
                write!(f, "autoscale needs min ({min}) <= max ({max})")
            }
            FleetConfigError::EmptyMix => f.write_str("a mix needs at least one class"),
            FleetConfigError::SharesNotOne { total } => {
                write!(f, "class shares must sum to 1, got {total}")
            }
            FleetConfigError::UnknownModel(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FleetConfigError {}

impl From<SpecError> for FleetConfigError {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::UnknownModel(e) => FleetConfigError::UnknownModel(e),
            SpecError::ZeroBatch => FleetConfigError::ZeroMaxBatch,
        }
    }
}

/// Everything a fleet run needs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Device placement: one potential replica per fabric slot.
    pub fabric: FabricSpec,
    /// Model name resolved through [`nn::models::spec_by_name`].
    pub model: String,
    /// Kernel dispatch mode for every replica.
    pub mode: DispatchMode,
    /// Per-replica dynamic batching policy.
    pub policy: BatchPolicy,
    /// Per-replica admission queue capacity.
    pub queue_capacity: usize,
    /// Request routing policy.
    pub router: RouterPolicy,
    /// Tenant priority classes and traffic shares.
    pub mix: PriorityMix,
    /// Aggregate offered load (requests per simulated second).
    pub rate_rps: f64,
    /// Requests to generate.
    pub num_requests: usize,
    /// Phased load profile; when set it overrides `rate_rps` /
    /// `num_requests` (phases run back to back on the simulated clock —
    /// the burst-then-trickle shape the autoscaler demo drives).
    pub load_phases: Option<Vec<LoadPhase>>,
    /// Seed for arrivals, class assignment and model parameters.
    pub seed: u64,
    /// Controller cadence (brownout + autoscaler), simulated ns; 0 runs
    /// no controller: no brownout and no autoscaling.
    pub tick_ns: SimTime,
    /// Queue-depth autoscaling; `None` keeps every fabric slot active.
    pub autoscale: Option<AutoscaleConfig>,
    /// Replica engine options (timing-only, sanitizer).
    pub engine: EngineOptions,
}

impl FleetConfig {
    /// A CIFAR10 fleet on the given fabric: GLP4NN dispatch, batch-8 /
    /// 2 ms batching, timing-only replicas, 5 ms controller ticks, no
    /// autoscaling.
    pub fn cifar10(fabric: FabricSpec, router: RouterPolicy, mix: PriorityMix) -> Self {
        FleetConfig {
            fabric,
            model: "CIFAR10".to_string(),
            mode: DispatchMode::Glp4nn,
            policy: BatchPolicy::new(8, 2_000_000),
            queue_capacity: 64,
            router,
            mix,
            rate_rps: 40_000.0,
            num_requests: 100_000,
            load_phases: None,
            seed: 42,
            tick_ns: 5_000_000,
            autoscale: None,
            engine: EngineOptions {
                timing_only: true,
                sanitize: None,
            },
        }
    }

    /// Number of fabric slots (the replica ceiling).
    pub fn num_slots(&self) -> usize {
        self.fabric.num_slots()
    }

    /// Check every field a run would otherwise trip over:
    /// [`crate::FleetSim::new`] calls this before spawning anything.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        let bad = |r: &f64| !(r.is_finite() && *r > 0.0);
        let bad_rate = match &self.load_phases {
            Some(phases) => phases.iter().map(|p| p.rate_rps).find(bad),
            None => Some(self.rate_rps).filter(bad),
        };
        if let Some(rate) = bad_rate {
            return Err(FleetConfigError::ArrivalRate(rate));
        }
        if self.queue_capacity == 0 {
            return Err(FleetConfigError::ZeroQueueCapacity);
        }
        if self.policy.max_batch == 0 {
            return Err(FleetConfigError::ZeroMaxBatch);
        }
        if self.num_slots() == 0 {
            return Err(FleetConfigError::NoSlots);
        }
        if let Some(auto) = self.autoscale {
            if auto.min_replicas == 0 {
                return Err(FleetConfigError::ZeroMinReplicas);
            }
            if auto.min_replicas > auto.max_replicas {
                return Err(FleetConfigError::MinAboveMax {
                    min: auto.min_replicas,
                    max: auto.max_replicas,
                });
            }
        }
        self.mix.check()?;
        spec_by_name(&self.model, self.policy.max_batch, self.seed)?;
        Ok(())
    }

    /// Replicas active at start: the autoscaler's floor, or every slot.
    pub fn initial_replicas(&self) -> usize {
        match self.autoscale {
            Some(a) => a.min_replicas.min(self.num_slots()),
            None => self.num_slots(),
        }
    }
}

/// A homogeneous 8-slot P100 fabric on NVLink.
pub fn fabric_uniform8() -> FabricSpec {
    FabricSpec::uniform(
        "uniform8-nvlink",
        8,
        DeviceProps::p100(),
        LinkProps::nvlink(),
    )
}

/// A heterogeneous 12-slot PCIe fabric: 4× K40C, 4× P100, 4× Titan XP —
/// the paper's three evaluation devices side by side, where
/// capacity-blind routing visibly hurts.
pub fn fabric_hetero12() -> FabricSpec {
    let mut slots = Vec::new();
    for _ in 0..4 {
        slots.push(DeviceProps::k40c());
    }
    for _ in 0..4 {
        slots.push(DeviceProps::p100());
    }
    for _ in 0..4 {
        slots.push(DeviceProps::titan_xp());
    }
    FabricSpec::heterogeneous("hetero12-pcie", slots, LinkProps::pcie3())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_well_formed() {
        for mix in [
            PriorityMix::premium_heavy(),
            PriorityMix::besteffort_heavy(),
        ] {
            assert_eq!(mix.num_classes(), 3);
            let total: f64 = mix.classes.iter().map(|c| c.share).sum();
            assert!((total - 1.0).abs() < 1e-9);
            // Priority order: deadlines loosen with class index.
            assert!(mix.classes[0].deadline_ns <= mix.classes[1].deadline_ns);
            assert!(mix.classes[1].deadline_ns <= mix.classes[2].deadline_ns);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_shares_panic() {
        PriorityMix::new(
            "bad",
            vec![ClassSpec {
                name: "only".into(),
                share: 0.5,
                deadline_ns: SimTime::MAX,
            }],
        );
    }

    #[test]
    fn fabric_presets_have_expected_shape() {
        assert_eq!(fabric_uniform8().num_slots(), 8);
        let h = fabric_hetero12();
        assert_eq!(h.num_slots(), 12);
        // Heterogeneous: slots differ in capacity.
        assert!(h.slot_peak_flops(11) > h.slot_peak_flops(0));
    }

    #[test]
    fn initial_replicas_follow_autoscale_floor() {
        let mut cfg = FleetConfig::cifar10(
            fabric_uniform8(),
            RouterPolicy::RoundRobin,
            PriorityMix::premium_heavy(),
        );
        assert_eq!(cfg.initial_replicas(), 8);
        cfg.autoscale = Some(AutoscaleConfig::new(2, 8));
        assert_eq!(cfg.initial_replicas(), 2);
    }
}
