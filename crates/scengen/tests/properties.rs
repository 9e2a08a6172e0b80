//! Property tests for the procedural generators: node counts are honoured,
//! generation is deterministic per seed, random-geometric placements at
//! threshold density come out connected, grid degrees stay inside lattice
//! bounds, and composed traffic always satisfies the NodeId contract.

use proptest::prelude::*;
use wmn_phy::LinkModel;
use wmn_scengen::{is_connected, PairPolicy, TopologySpec, TrafficMix};
use wmn_sim::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every family generates exactly the stations its spec promises.
    #[test]
    fn prop_node_count_honoured(
        nodes in 2usize..20,
        cols in 1usize..6,
        rows in 2usize..5,
        seed in any::<u64>(),
    ) {
        let specs = [
            TopologySpec::RandomGeometric { nodes, side_m: 8.0 + nodes as f64 },
            TopologySpec::Grid { cols, rows, spacing_m: 5.0 },
            TopologySpec::Campus {
                clusters: rows,
                nodes_per_cluster: cols + 1,
                cluster_radius_m: 4.0,
                side_m: 9.0 * rows as f64,
            },
            TopologySpec::PerturbedLine { nodes, spacing_m: 5.0, jitter_m: 0.5 },
        ];
        for spec in specs {
            let topo = spec.generate(seed);
            prop_assert_eq!(topo.node_count(), spec.node_count(), "{:?}", spec);
            // Dense NodeId contract: every id below node_count resolves.
            for i in 0..topo.node_count() {
                prop_assert!(topo.contains(NodeId::new(i as u32)));
            }
        }
    }

    /// Same spec + seed ⇒ byte-identical placement; different seed ⇒ a
    /// different placement for the stochastic families.
    #[test]
    fn prop_generation_deterministic_per_seed(nodes in 4usize..16, seed in any::<u64>()) {
        let spec = TopologySpec::RandomGeometric { nodes, side_m: 6.0 + 2.0 * nodes as f64 };
        let a = spec.generate(seed);
        let b = spec.generate(seed);
        prop_assert_eq!(&a.positions, &b.positions);
        let c = spec.generate(seed.wrapping_add(1));
        prop_assert_ne!(&a.positions, &c.positions);
    }

    /// At threshold density (≥ ~1 station per 8 m × 8 m cell, usable links
    /// reach ≈15 m) random-geometric placements are always connected —
    /// the generator's deterministic rejection loop guarantees it.
    #[test]
    fn prop_random_geometric_connected_above_threshold_density(
        nodes in 9usize..24,
        seed in any::<u64>(),
    ) {
        let side_m = 8.0 * (nodes as f64).sqrt();
        let topo = TopologySpec::RandomGeometric { nodes, side_m }.generate(seed);
        prop_assert!(
            is_connected(&topo.positions),
            "rgg nodes={} side={:.1} seed={} must be connected",
            nodes, side_m, seed
        );
    }

    /// Grid neighbour degrees stay inside the lattice bounds: counting
    /// stations within one lattice constant (plus slack), corners see 2,
    /// edges 3, interior nodes 4 — never more, never fewer.
    #[test]
    fn prop_grid_degree_bounds(cols in 2usize..7, rows in 2usize..6, seed in any::<u64>()) {
        let spacing_m = 5.0;
        let topo = TopologySpec::Grid { cols, rows, spacing_m }.generate(seed);
        for a in 0..topo.node_count() {
            let degree = (0..topo.node_count())
                .filter(|&b| b != a)
                .filter(|&b| {
                    topo.distance(NodeId::new(a as u32), NodeId::new(b as u32)) < spacing_m * 1.05
                })
                .count();
            prop_assert!(
                (2..=4).contains(&degree),
                "grid {}x{} node {} has lattice degree {}",
                cols, rows, a, degree
            );
        }
    }

    /// Composition honours the requested flow counts and only ever emits
    /// in-range, routed paths — for every pairing policy.
    #[test]
    fn prop_composition_valid_for_every_policy(
        nodes in 6usize..14,
        ftp in 0usize..3,
        voip in 0usize..3,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::RandomGeometric { nodes, side_m: 7.0 * (nodes as f64).sqrt() }
            .generate(seed);
        let model = LinkModel::paper();
        for pairing in [PairPolicy::Random, PairPolicy::Gateway, PairPolicy::FarPairs] {
            let mix = TrafficMix { ftp, web: 1, voip, cbr: 1, pairing };
            let flows = mix.compose(&topo, &model, seed).unwrap();
            prop_assert_eq!(flows.len(), mix.flow_count());
            for flow in &flows {
                prop_assert!(flow.path.len() >= 2);
                prop_assert!(flow.path.iter().all(|n| topo.contains(*n)));
                prop_assert!(flow.path.windows(2).all(|w| w[0] != w[1]));
            }
        }
    }
}
