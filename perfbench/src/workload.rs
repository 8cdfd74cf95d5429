//! The four benchmark workloads: which simulations each one builds from
//! a seed, and how long each repetition steps them.

use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, RecoveryConfig, TrafficPattern};
use damq_switch::{ArbiterPolicy, FlowControl};

/// The seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning: a gain claimed on [`DEFAULT_SEED`] must
/// also hold here before it counts.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// Slots per input buffer in every workload (the paper's 4-slot buffers).
pub const SLOTS: usize = 4;

/// Switch radix in every workload (the paper's 4×4 switches).
pub const RADIX: usize = 4;

/// Link-down draws per `faulted64` fault plan, as a share of the
/// 64-terminal fabric's 192 links (the `recovery_headline` DAMQ heal
/// cell's worst shape). The 58 draws are made with replacement, so about
/// 50 distinct links (26%) are dead for the whole run.
const DEAD_LINK_SHARE: f64 = 0.30;

/// Independent fault plans per `faulted64` repetition. Which links die
/// moves the work per cycle by about ±10% from plan to plan; pooling
/// several plans keeps one seed's figure close to another's.
const FAULT_PLANS: u64 = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot-spot traffic past saturation: tree saturation and backpressure.
    Hotspot64,
    /// Uniform traffic below saturation on 1024 terminals.
    Uniform1024,
    /// Discarding with about 26% of the links dead and recovery on.
    Faulted64,
    /// Table 3's sweep: each buffer design in turn under discarding.
    Designs64,
}

/// Warm-up and measured cycles of one repetition of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    /// Cycles stepped before the measured window (untimed).
    pub warm_up: u64,
    /// Cycles stepped and timed.
    pub measured: u64,
}

/// One simulation a workload builds: its configuration and fault plan.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// The seeded network configuration.
    pub config: NetworkConfig,
    /// Faults installed at build time, if any.
    pub faults: Option<FaultPlan>,
}

impl SimSpec {
    /// Builds the simulation. Consumes a prepared fault plan so callers
    /// can keep the plan's clone out of a timed region.
    pub fn build(&self, faults: Option<FaultPlan>) -> NetworkSim {
        match faults {
            Some(plan) => NetworkSim::with_faults(self.config, plan),
            None => NetworkSim::new(self.config),
        }
        .expect("workload configurations are valid")
    }

    /// Stages of the fabric (`radix^stages = terminals`).
    pub fn stages(&self) -> usize {
        let (mut n, mut stages) = (1, 0);
        while n < self.config.size() {
            n *= self.config.radix();
            stages += 1;
        }
        stages
    }

    /// Switches in the whole fabric.
    pub fn switches(&self) -> usize {
        self.stages() * self.config.size() / self.config.radix()
    }
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Hotspot64,
        Workload::Uniform1024,
        Workload::Faulted64,
        Workload::Designs64,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hotspot64 => "hotspot64",
            Workload::Uniform1024 => "uniform1024",
            Workload::Faulted64 => "faulted64",
            Workload::Designs64 => "designs64",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycles per repetition. Fixed per workload, never derived from the
    /// time budget, so the hot-spot backlog (and with it peak memory) is
    /// the same in every run. Smoke lengths are a few hundred cycles.
    pub fn lengths(self, smoke: bool) -> Lengths {
        let (warm_up, measured) = match (self, smoke) {
            (Workload::Hotspot64, false) => (2_000, 20_000),
            (Workload::Uniform1024, false) => (200, 1_500),
            (Workload::Faulted64, false) => (1_000, 4_000),
            (Workload::Designs64, false) => (500, 4_000),
            (Workload::Uniform1024, true) => (50, 150),
            (_, true) => (100, 300),
        };
        Lengths { warm_up, measured }
    }

    /// The simulations one repetition steps, in order, all derived from
    /// `seed`: one per buffer design for `designs64`, one per fault plan
    /// for `faulted64`, one otherwise.
    pub fn specs(self, seed: u64, lengths: Lengths) -> Vec<SimSpec> {
        let sim_seed = mix(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let base = NetworkConfig::new(64, RADIX)
            .slots_per_buffer(SLOTS)
            .arbiter_policy(ArbiterPolicy::Smart)
            .seed(sim_seed);
        match self {
            Workload::Hotspot64 => vec![SimSpec {
                config: base
                    .buffer_kind(BufferKind::Damq)
                    .flow_control(FlowControl::Blocking)
                    .traffic(TrafficPattern::paper_hot_spot())
                    .offered_load(0.5),
                faults: None,
            }],
            Workload::Uniform1024 => vec![SimSpec {
                config: NetworkConfig::new(1024, RADIX)
                    .slots_per_buffer(SLOTS)
                    .arbiter_policy(ArbiterPolicy::Smart)
                    .buffer_kind(BufferKind::Damq)
                    .flow_control(FlowControl::Blocking)
                    .traffic(TrafficPattern::Uniform)
                    .offered_load(0.3)
                    .seed(sim_seed),
                faults: None,
            }],
            Workload::Faulted64 => {
                let horizon = (lengths.warm_up / 2).max(1);
                let spec = FaultSpec {
                    link_flaps: (DEAD_LINK_SHARE * (3 * 16 * RADIX) as f64).round() as usize,
                    // Every failed link stays down past the end of the rep.
                    flap_duration: lengths.warm_up + lengths.measured + 1,
                    ..FaultSpec::fault_free(3, 16, RADIX, 64, SLOTS, horizon)
                };
                (0..FAULT_PLANS)
                    .map(|plan| SimSpec {
                        config: base
                            .buffer_kind(BufferKind::Damq)
                            .flow_control(FlowControl::Discarding)
                            .traffic(TrafficPattern::Uniform)
                            .recovery(RecoveryConfig::enabled())
                            .offered_load(0.6)
                            .seed(mix(sim_seed ^ plan)),
                        faults: Some(FaultPlan::generate(
                            mix(seed ^ 0xFA17_FA17 ^ (plan << 32)),
                            &spec,
                        )),
                    })
                    .collect()
            }
            Workload::Designs64 => DESIGNS
                .iter()
                .map(|&kind| SimSpec {
                    config: base
                        .buffer_kind(kind)
                        .flow_control(FlowControl::Discarding)
                        .traffic(TrafficPattern::Uniform)
                        .offered_load(0.6),
                    faults: None,
                })
                .collect(),
        }
    }
}

/// The five buffer designs, in the order `designs64` steps them.
pub const DESIGNS: [BufferKind; 5] = [
    BufferKind::Fifo,
    BufferKind::Samq,
    BufferKind::Safc,
    BufferKind::Damq,
    BufferKind::Dafc,
];

/// SplitMix64 finaliser: spreads a user seed into independent-looking
/// per-workload seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the standalone layer rigs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damq_core::FaultEvent;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn seed_alone_selects_the_inputs() {
        for w in Workload::ALL {
            let lengths = w.lengths(true);
            let a = w.specs(DEFAULT_SEED, lengths);
            let b = w.specs(DEFAULT_SEED, lengths);
            let c = w.specs(HELD_OUT_SEED, lengths);
            assert_eq!(a.len(), b.len());
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert_eq!(x.config, y.config);
                assert_eq!(x.faults, y.faults);
                assert_ne!(x.config, z.config, "only the seed differs");
            }
        }
    }

    /// Distinct links a plan takes down.
    fn dead_links(plan: &FaultPlan) -> usize {
        let mut sites: Vec<_> = plan
            .events()
            .iter()
            .map(|e| match e {
                FaultEvent::LinkDown { site, .. } => (site.stage, site.switch, site.input),
                other => panic!("faulted64 schedules only link-down events, got {other:?}"),
            })
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites.len()
    }

    #[test]
    fn faulted64_kills_about_a_quarter_of_the_links() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let specs = Workload::Faulted64.specs(seed, Workload::Faulted64.lengths(false));
            assert_eq!(specs.len(), FAULT_PLANS as usize);
            let plans: Vec<_> = specs
                .iter()
                .map(|s| s.faults.clone().expect("faulted64 has a fault plan"))
                .collect();
            for plan in &plans {
                assert_eq!(plan.events().len(), 58, "30% of 192 links drawn");
                let dead = dead_links(plan);
                assert!((46..=54).contains(&dead), "{dead} distinct dead links");
            }
            assert_ne!(plans[0], plans[1], "each simulation faces its own damage");
        }
    }

    #[test]
    fn fabric_shapes() {
        let hot = &Workload::Hotspot64.specs(1, Workload::Hotspot64.lengths(true))[0];
        assert_eq!((hot.stages(), hot.switches()), (3, 48));
        let big = &Workload::Uniform1024.specs(1, Workload::Uniform1024.lengths(true))[0];
        assert_eq!((big.stages(), big.switches()), (5, 1280));
        assert_eq!(
            Workload::Designs64
                .specs(
                    1,
                    Lengths {
                        warm_up: 1,
                        measured: 1
                    }
                )
                .len(),
            5
        );
    }
}
