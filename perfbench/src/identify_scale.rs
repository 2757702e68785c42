//! `identify-scale`: one identify pass over a large synthetic Internet.
//!
//! A unit is `IdentifyPipeline::run` over `World::synthetic(seed, n)`:
//! an address-space scan of every prefix, the batched keyword sweep,
//! fingerprint validation of every candidate and geolocation. The
//! synthetic world gives each of its `n` filtered networks one console,
//! with products assigned round-robin, so the expected output is known
//! exactly.

use std::collections::BTreeSet;

use filterwatch_core::identify::{IdentificationReport, IdentifyPipeline};
use filterwatch_core::World;
use filterwatch_products::ProductKind;
use filterwatch_telemetry::TelemetryHandle;

use crate::bench::{UnitReport, Workload};
use crate::layers::{stage, Counts};
use crate::trace::Tracer;

/// Filtered networks in the synthetic world.
pub const NETWORKS: usize = 1000;

/// The `identify-scale` workload.
pub struct IdentifyScale {
    seed: u64,
    networks: usize,
}

impl IdentifyScale {
    /// The workload over `World::synthetic(seed, networks)`.
    pub fn new(seed: u64, networks: usize) -> IdentifyScale {
        IdentifyScale { seed, networks }
    }

    /// Exactly one installation per synthetic network `SYN<i>`, of the
    /// product the round-robin assignment gave network `i`.
    fn installations_match(&self, report: &IdentificationReport) -> bool {
        let mut seen = BTreeSet::new();
        report.installations.len() == self.networks
            && report.installations.iter().all(|inst| {
                let Some(i) = inst
                    .as_name
                    .strip_prefix("SYN")
                    .and_then(|n| n.parse::<usize>().ok())
                else {
                    return false;
                };
                i < self.networks
                    && seen.insert(i)
                    && inst.product == ProductKind::ALL[i % ProductKind::ALL.len()]
            })
    }
}

impl Workload for IdentifyScale {
    type Prepared = World;
    type Output = (IdentificationReport, World);

    /// Synthetic worlds leave telemetry off; a traced unit turns it on
    /// so the program's scan span and counters can be read.
    fn prepare(&self, traced: bool) -> World {
        let mut world = World::synthetic(self.seed, self.networks);
        if traced {
            world.net.set_telemetry(TelemetryHandle::enabled());
        }
        world
    }

    fn run(&self, world: World, tr: &mut Tracer) -> (IdentificationReport, World) {
        let telemetry = world.net.telemetry().clone();
        let report = stage(tr, &telemetry, "identify", || {
            IdentifyPipeline::new().run(&world.net)
        });
        (report, world)
    }

    fn inspect(&self, (report, world): (IdentificationReport, World)) -> UnitReport {
        let mut counts = Counts::default();
        counts.absorb_snapshot(&world.net.telemetry().snapshot());
        counts.installations = report.installations.len() as u64;
        counts.candidates = report.candidates.values().sum::<usize>() as u64;
        UnitReport {
            ok: self.installations_match(&report),
            work: vec![
                ("index_records", report.index_records as u64),
                ("candidates", counts.candidates),
                ("installations", counts.installations),
            ],
            vdays: world.net.now().secs() as f64 / 86_400.0,
            counts,
        }
    }
}
