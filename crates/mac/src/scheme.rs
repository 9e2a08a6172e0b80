//! [`MacScheme`]: building one station's MAC from a scheme.
//!
//! Its one implementor is `wmn_netsim::Scheme`, which names every scheme
//! and builds each scheme's [`MacEntity`] directly; a scheme's name and
//! whether it is opportunistic live there too. The trait stays only because
//! the benchmark crate (`perfbench/`) imports it to call `build_mac`; it
//! goes with that import.

use wmn_phy::PhyParams;
use wmn_sim::{NodeId, StreamRng};

use crate::MacEntity;

/// A forwarding scheme, as the factory of its per-station MAC.
pub trait MacScheme {
    /// Builds the MAC state machine for one station. `rng` is the node's
    /// private stream (derived as `mac/<index>` by the runner); `params`
    /// carries the PHY timing the MAC derives its protocol constants from.
    fn build_mac(&self, params: &PhyParams, node: NodeId, rng: StreamRng) -> Box<dyn MacEntity>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcfConfig, DcfMac, MacEntityExt, MacStats};

    #[test]
    fn dcf_scheme_builds_entities_and_reports_metadata() {
        // What a DCF scheme builds: a `DcfMac` from the PHY's timing, fresh
        // and live, reporting the station and aggregation limit it was
        // built with (1 is plain DCF, 16 is AFR).
        let params = PhyParams::paper_216();
        for aggregation in [1, 16] {
            let cfg = DcfConfig::from_phy(&params, aggregation);
            assert_eq!(cfg.max_aggregation, aggregation);
            let built = DcfMac::new(cfg, NodeId::new(3), StreamRng::derive(1, "mac/test"));
            assert_eq!(built.node(), NodeId::new(3));
            let mut mac: Box<dyn MacEntity> = Box::new(built);
            assert_eq!(mac.stats(), MacStats::default());
            // The built entity is live: an idle notification is accepted.
            let _ = mac.on_idle_vec(wmn_sim::SimTime::ZERO);
        }
    }
}
