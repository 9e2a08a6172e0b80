//! Seeded mobility generation: [`MobilitySpec`] expands into a concrete
//! [`MotionPlan`].
//!
//! A spec is the *recipe* (which mobility family, at what speed); the plan
//! is the fully-determined per-node trajectory set the simulator consumes.
//! All randomness — drift headings, waypoint targets — is drawn **at
//! expansion time** from per-node streams (the seed and the
//! `SCENGEN_MOBILITY_*` rows of [`wmn_sim::labels`]), so the same spec and
//! seed always produce the same trajectories, and the simulation itself stays free of
//! in-run mobility randomness (the determinism contract of
//! [`wmn_topology::motion`]).

use wmn_phy::Position;
use wmn_sim::{labels, RngDirectory, SimDuration, SimTime};
use wmn_topology::{MotionPlan, NodePath, Waypoint};

use crate::json::Value;
use crate::spec::req_f64;

/// How often expanded plans re-sample positions (kept below the default
/// [`wmn_topology::motion::DEFAULT_MOTION_TICK`] so pedestrian-to-vehicular
/// speeds stay well-resolved against the paper's ~5 m link granularity).
const EXPANDED_TICK: SimDuration = SimDuration::from_millis(50);

/// A mobility recipe for a whole placement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilitySpec {
    /// Nobody moves — the default, and byte-identical to the pre-mobility
    /// simulator (an empty [`MotionPlan`] is expanded).
    Static,
    /// Every node drifts with a constant velocity: heading uniform on the
    /// circle, speed uniform in `[0, max_speed_mps]`, both drawn per node
    /// at expansion time.
    Drift {
        /// Upper bound on per-node drift speed, metres per second.
        max_speed_mps: f64,
    },
    /// Random-waypoint motion: each node pursues `legs` successive targets
    /// drawn uniformly from the placement's bounding box, moving at
    /// `speed_mps`, then parks at the last target.
    Waypoint {
        /// Travel speed between waypoints, metres per second.
        speed_mps: f64,
        /// Number of waypoints per node.
        legs: usize,
    },
}

impl MobilitySpec {
    /// The JSON / slug family name.
    pub fn kind(self) -> &'static str {
        match self {
            MobilitySpec::Static => "static",
            MobilitySpec::Drift { .. } => "drift",
            MobilitySpec::Waypoint { .. } => "waypoint",
        }
    }

    /// An id-friendly slug distinguishing the knobs, e.g. `drift2`,
    /// `wp3x1.5`. Speeds print via `f64`'s `Display` (no rounding), so
    /// distinct recipes never collide into one slug.
    pub fn slug(self) -> String {
        match self {
            MobilitySpec::Static => "static".into(),
            MobilitySpec::Drift { max_speed_mps } => format!("drift{max_speed_mps}"),
            MobilitySpec::Waypoint { speed_mps, legs } => format!("wp{legs}x{speed_mps}"),
        }
    }

    /// Basic sanity of the knobs (positive, finite speeds; between one and
    /// 4 096 waypoint legs, a memory bound like the station count's).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn check(self) -> Result<(), String> {
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{}: {what} must be positive, got {value}", self.kind()))
            }
        };
        match self {
            MobilitySpec::Static => Ok(()),
            MobilitySpec::Drift { max_speed_mps } => positive(max_speed_mps, "max_speed_mps"),
            MobilitySpec::Waypoint { speed_mps, legs } => {
                positive(speed_mps, "speed_mps")?;
                if !(1..=4096).contains(&legs) {
                    return Err(format!("waypoint: legs must be in 1..=4096, got {legs}"));
                }
                Ok(())
            }
        }
    }

    /// Expands the recipe into per-node trajectories over `positions`.
    /// Deterministic per `(self, positions, seed)`; the static spec expands
    /// to the empty (default) plan, so it composes into scenarios
    /// byte-identically to not specifying mobility at all.
    ///
    /// Precondition: [`MobilitySpec::check`] accepts the knobs. A waypoint
    /// schedule past the clock saturates, which [`MotionPlan::check`] rejects.
    pub fn expand(self, positions: &[Position], seed: u64) -> MotionPlan {
        let dir = RngDirectory::new(seed);
        match self {
            MobilitySpec::Static => MotionPlan::default(),
            MobilitySpec::Drift { max_speed_mps } => {
                let paths = (0..positions.len() as u32)
                    .map(|i| {
                        let mut rng = dir.indexed_stream(labels::SCENGEN_MOBILITY_DRIFT, i);
                        let heading = rng.uniform() * std::f64::consts::TAU;
                        let speed = rng.uniform() * max_speed_mps;
                        NodePath::Drift {
                            vx_mps: speed * heading.cos(),
                            vy_mps: speed * heading.sin(),
                        }
                    })
                    .collect();
                MotionPlan { paths, tick: EXPANDED_TICK }
            }
            MobilitySpec::Waypoint { speed_mps, legs } => {
                let (min, max) = wmn_topology::motion::bounding_box(positions.iter().copied());
                let paths = (0..positions.len())
                    .map(|i| {
                        let mut rng = dir.indexed_stream(labels::SCENGEN_MOBILITY_WP, i as u32);
                        let mut points = Vec::with_capacity(legs);
                        let mut from = positions[i];
                        let mut at_ns = 0u64;
                        for _ in 0..legs {
                            let target = Position::new(
                                min.x + rng.uniform() * (max.x - min.x),
                                min.y + rng.uniform() * (max.y - min.y),
                            );
                            // Travel time at the spec speed; a target on top
                            // of the current position still advances time by
                            // one nanosecond to keep waypoint instants
                            // strictly increasing.
                            let travel_ns =
                                ((from.distance_to(target) / speed_mps) * 1e9).ceil() as u64;
                            at_ns = at_ns.saturating_add(travel_ns.max(1));
                            points.push(Waypoint { at: SimTime::from_nanos(at_ns), pos: target });
                            from = target;
                        }
                        NodePath::Waypoints(points)
                    })
                    .collect();
                MotionPlan { paths, tick: EXPANDED_TICK }
            }
        }
    }

    /// Serialises the spec as a JSON object (`kind` plus the family knobs).
    pub fn to_json(self) -> Value {
        let obj = Value::obj().with("kind", self.kind());
        match self {
            MobilitySpec::Static => obj,
            MobilitySpec::Drift { max_speed_mps } => obj.with("max_speed_mps", max_speed_mps),
            MobilitySpec::Waypoint { speed_mps, legs } => {
                obj.with("speed_mps", speed_mps).with("legs", legs)
            }
        }
    }

    /// Decodes a spec from the [`MobilitySpec::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/invalid field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let kind = crate::spec::req_str(value, "kind", "mobility")?;
        Ok(match kind {
            "static" => MobilitySpec::Static,
            "drift" => {
                MobilitySpec::Drift { max_speed_mps: req_f64(value, "max_speed_mps", "mobility")? }
            }
            "waypoint" => MobilitySpec::Waypoint {
                speed_mps: req_f64(value, "speed_mps", "mobility")?,
                legs: crate::spec::req_usize(value, "legs", "mobility")?,
            },
            other => {
                return Err(format!(
                    "mobility kind must be one of \"static\", \"drift\", \"waypoint\", \
                     got {other:?}"
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_positions() -> Vec<Position> {
        (0..6).map(|i| Position::new(f64::from(i % 3) * 5.0, f64::from(i / 3) * 5.0)).collect()
    }

    #[test]
    fn static_expands_to_the_default_plan() {
        let plan = MobilitySpec::Static.expand(&grid_positions(), 7);
        assert_eq!(plan, MotionPlan::default());
        assert!(plan.is_static());
    }

    #[test]
    fn drift_is_deterministic_and_bounded() {
        let positions = grid_positions();
        let spec = MobilitySpec::Drift { max_speed_mps: 3.0 };
        let a = spec.expand(&positions, 9);
        let b = spec.expand(&positions, 9);
        assert_eq!(a, b, "same seed, same trajectories");
        let c = spec.expand(&positions, 10);
        assert_ne!(a, c, "different seeds drift differently");
        assert!(!a.is_static());
        assert_eq!(a.paths.len(), positions.len());
        for path in &a.paths {
            let NodePath::Drift { vx_mps, vy_mps } = path else {
                panic!("drift spec must expand to drift paths")
            };
            assert!(vx_mps.hypot(*vy_mps) <= 3.0 + 1e-12, "speed within the bound");
        }
    }

    #[test]
    fn waypoints_stay_in_the_bounding_box_and_advance_in_time() {
        let positions = grid_positions();
        let spec = MobilitySpec::Waypoint { speed_mps: 2.0, legs: 4 };
        let plan = spec.expand(&positions, 3);
        assert_eq!(plan, spec.expand(&positions, 3), "deterministic per seed");
        for (i, path) in plan.paths.iter().enumerate() {
            let NodePath::Waypoints(points) = path else { panic!("waypoint paths expected") };
            assert_eq!(points.len(), 4);
            assert!(path.check().is_ok(), "node {i}: {path:?}");
            for wp in points {
                assert!((0.0..=10.0).contains(&wp.pos.x) && (0.0..=10.0).contains(&wp.pos.y));
            }
        }
        // Plans pass the simulator's structural validation.
        assert_eq!(plan.check(&positions, SimTime::from_millis(1000)), Ok(()));
    }

    #[test]
    fn check_rejects_bad_knobs() {
        assert!(MobilitySpec::Drift { max_speed_mps: 0.0 }.check().is_err());
        assert!(MobilitySpec::Drift { max_speed_mps: f64::NAN }.check().is_err());
        assert!(MobilitySpec::Waypoint { speed_mps: 2.0, legs: 0 }.check().is_err());
        assert!(MobilitySpec::Waypoint { speed_mps: -1.0, legs: 2 }.check().is_err());
        assert!(MobilitySpec::Static.check().is_ok());
    }

    #[test]
    fn json_round_trip_all_kinds() {
        for spec in [
            MobilitySpec::Static,
            MobilitySpec::Drift { max_speed_mps: 2.5 },
            MobilitySpec::Waypoint { speed_mps: 1.5, legs: 3 },
        ] {
            let text = spec.to_json().to_string();
            let back = MobilitySpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(MobilitySpec::from_json(&Value::obj().with("kind", "teleport")).is_err());
        assert!(MobilitySpec::from_json(&Value::obj().with("kind", "drift")).is_err());
    }

    #[test]
    fn slugs_distinguish_knobs() {
        assert_eq!(MobilitySpec::Static.slug(), "static");
        assert_eq!(MobilitySpec::Drift { max_speed_mps: 2.0 }.slug(), "drift2");
        assert_eq!(MobilitySpec::Waypoint { speed_mps: 1.5, legs: 3 }.slug(), "wp3x1.5");
        // Regression: nearby speeds must not round into the same slug —
        // sweep-cell names are keyed on it.
        assert_ne!(
            MobilitySpec::Drift { max_speed_mps: 1.6 }.slug(),
            MobilitySpec::Drift { max_speed_mps: 2.4 }.slug(),
        );
    }
}
