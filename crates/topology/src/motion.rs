//! Time-varying positions: per-node trajectories over a placement.
//!
//! A [`Topology`](crate::Topology) (or a `Scenario`'s `positions`) pins
//! where every station
//! sits at `t = 0`; a [`MotionPlan`] says how each of them moves from
//! there. Trajectories are *pure functions of time* — no randomness is
//! drawn while a simulation runs (generators in `wmn_scengen` draw all
//! their randomness up front when they expand a mobility spec into a
//! plan), so a mobile run consumes exactly the same RNG streams as a
//! static one and stays bit-reproducible per seed.
//!
//! The plan deliberately knows nothing about the radio model: the
//! simulation runner samples [`NodePath::position_at`] on a fixed tick and
//! pushes the tick's new placements into
//! `wmn_phy::Medium::update_node_positions`, which re-evaluates each station
//! pair with a moved endpoint, among those its cached rows hold, once.

use wmn_phy::params::SPEED_OF_LIGHT;
use wmn_phy::Position;
use wmn_sim::{SimDuration, SimTime};

/// One scheduled waypoint of a [`NodePath::Waypoints`] trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Waypoint {
    /// When the node arrives at `pos` (simulation time).
    pub at: SimTime,
    /// Where it is at that instant.
    pub pos: Position,
}

/// The trajectory of one node, relative to its `t = 0` placement.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum NodePath {
    /// Stays at the initial placement for the whole run.
    #[default]
    Static,
    /// Constant-velocity drift away from the initial placement.
    Drift {
        /// Velocity along x, metres per second.
        vx_mps: f64,
        /// Velocity along y, metres per second.
        vy_mps: f64,
    },
    /// Piecewise-linear waypoint schedule: the node leaves its initial
    /// placement at `t = 0`, reaches each waypoint at its `at` instant
    /// (moving in a straight line between consecutive waypoints), and
    /// holds the last waypoint's position afterwards. Times must be
    /// strictly increasing and non-zero ([`NodePath::check`]).
    Waypoints(Vec<Waypoint>),
}

impl NodePath {
    /// Whether this path never leaves the initial placement.
    pub fn is_static(&self) -> bool {
        match self {
            NodePath::Static => true,
            NodePath::Drift { vx_mps, vy_mps } => *vx_mps == 0.0 && *vy_mps == 0.0,
            NodePath::Waypoints(points) => points.is_empty(),
        }
    }

    /// The node's position at `t`, given its `t = 0` placement.
    pub fn position_at(&self, origin: Position, t: SimTime) -> Position {
        match self {
            NodePath::Static => origin,
            NodePath::Drift { vx_mps, vy_mps } => {
                let secs = t.as_nanos() as f64 * 1e-9;
                Position::new(origin.x + vx_mps * secs, origin.y + vy_mps * secs)
            }
            NodePath::Waypoints(points) => {
                let mut from = Waypoint { at: SimTime::ZERO, pos: origin };
                for wp in points {
                    if t <= wp.at {
                        let span = (wp.at.as_nanos() - from.at.as_nanos()) as f64;
                        if span <= 0.0 {
                            return wp.pos;
                        }
                        let f = (t.as_nanos() - from.at.as_nanos()) as f64 / span;
                        return Position::new(
                            from.pos.x + (wp.pos.x - from.pos.x) * f,
                            from.pos.y + (wp.pos.y - from.pos.y) * f,
                        );
                    }
                    from = *wp;
                }
                from.pos
            }
        }
    }

    /// Structural sanity: finite velocities and coordinates, waypoint times
    /// strictly increasing and after `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        match self {
            NodePath::Static => Ok(()),
            NodePath::Drift { vx_mps, vy_mps } => {
                if vx_mps.is_finite() && vy_mps.is_finite() {
                    Ok(())
                } else {
                    Err(format!("drift velocity ({vx_mps}, {vy_mps}) must be finite"))
                }
            }
            NodePath::Waypoints(points) => {
                let mut last = SimTime::ZERO;
                for (i, wp) in points.iter().enumerate() {
                    if wp.at <= last {
                        return Err(format!(
                            "waypoint {i} at {:?} does not advance past {:?} \
                             (times must be strictly increasing, starting after t = 0)",
                            wp.at, last
                        ));
                    }
                    if !(wp.pos.x.is_finite() && wp.pos.y.is_finite()) {
                        return Err(format!("waypoint {i} position {} is not finite", wp.pos));
                    }
                    last = wp.at;
                }
                Ok(())
            }
        }
    }
}

/// How often a mobile simulation re-samples positions when no interval is
/// set explicitly (100 ms: fast enough that a pedestrian-speed node moves
/// well under a metre between refreshes).
pub const DEFAULT_MOTION_TICK: SimDuration = SimDuration::from_millis(100);

/// Per-node trajectories for a whole placement.
///
/// `paths[i]` belongs to node `i` (the dense NodeId contract); nodes beyond
/// the vector's length are static, so the empty default plan — what every
/// pre-mobility scenario uses — moves nothing, schedules nothing, and is
/// byte-for-byte equivalent to the static simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct MotionPlan {
    /// Per-node paths, indexed by `NodeId`; missing tail entries are static.
    pub paths: Vec<NodePath>,
    /// How often the runner re-samples positions and refreshes the medium.
    /// Ignored when the plan is static.
    pub tick: SimDuration,
}

impl Default for MotionPlan {
    fn default() -> Self {
        MotionPlan { paths: Vec::new(), tick: DEFAULT_MOTION_TICK }
    }
}

impl MotionPlan {
    /// Whether every node stays put (an empty plan is static).
    pub fn is_static(&self) -> bool {
        self.paths.iter().all(NodePath::is_static)
    }

    /// The path of `node` (static beyond the vector's length).
    pub fn path(&self, node: usize) -> &NodePath {
        static STATIC: NodePath = NodePath::Static;
        self.paths.get(node).unwrap_or(&STATIC)
    }

    /// Structural sanity against the `t = 0` placement of a run ending at
    /// `end`: no paths for out-of-range nodes, every path well-formed, a
    /// positive tick whenever anything moves, and no distance a
    /// [`SimDuration::LIMIT`] propagation delay cannot cover. Motion is
    /// linear, so the box of the placement, the positions at `end` and the
    /// waypoints holds every position the run samples.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(&self, positions: &[Position], end: SimTime) -> Result<(), String> {
        let node_count = positions.len();
        if self.paths.len() > node_count {
            return Err(format!(
                "motion plan has {} paths for a {node_count}-station placement",
                self.paths.len()
            ));
        }
        for (i, path) in self.paths.iter().enumerate() {
            path.check().map_err(|msg| format!("node {i}: {msg}"))?;
        }
        if !self.is_static() && self.tick == SimDuration::ZERO {
            return Err("a moving plan needs a positive tick".into());
        }
        let reached = positions.iter().enumerate().flat_map(|(i, &origin)| {
            let points =
                if let NodePath::Waypoints(points) = self.path(i) { &points[..] } else { &[] };
            let last = self.path(i).position_at(origin, end);
            [origin, last].into_iter().chain(points.iter().map(|wp| wp.pos))
        });
        let (min, max) = bounding_box(reached);
        let span = (max.x - min.x).hypot(max.y - min.y);
        let reach = SimDuration::LIMIT.as_secs_f64() * SPEED_OF_LIGHT;
        if node_count > 0 && (span.is_nan() || span > reach) {
            return Err(format!("positions and paths span {span:e} m, past {reach:e} m"));
        }
        Ok(())
    }
}

/// The axis-aligned bounding box `(min, max)` of `points`.
pub fn bounding_box(points: impl IntoIterator<Item = Position>) -> (Position, Position) {
    let mut b = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
    for p in points {
        b = [b[0].min(p.x), b[1].min(p.y), b[2].max(p.x), b[3].max(p.y)];
    }
    (Position::new(b[0], b[1]), Position::new(b[2], b[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_millis(s * 1000)
    }

    fn line(n: usize) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect()
    }

    #[test]
    fn static_path_never_moves() {
        let origin = Position::new(3.0, 4.0);
        assert_eq!(NodePath::Static.position_at(origin, secs(1000)), origin);
        assert!(NodePath::Static.is_static());
    }

    #[test]
    fn drift_is_linear_in_time() {
        let path = NodePath::Drift { vx_mps: 2.0, vy_mps: -1.0 };
        let origin = Position::new(10.0, 10.0);
        assert_eq!(path.position_at(origin, SimTime::ZERO), origin);
        let p = path.position_at(origin, secs(5));
        assert!((p.x - 20.0).abs() < 1e-9 && (p.y - 5.0).abs() < 1e-9);
        assert!(!path.is_static());
        assert!(NodePath::Drift { vx_mps: 0.0, vy_mps: 0.0 }.is_static());
    }

    #[test]
    fn waypoints_interpolate_and_hold() {
        let path = NodePath::Waypoints(vec![
            Waypoint { at: secs(10), pos: Position::new(10.0, 0.0) },
            Waypoint { at: secs(20), pos: Position::new(10.0, 20.0) },
        ]);
        let origin = Position::new(0.0, 0.0);
        assert_eq!(path.position_at(origin, SimTime::ZERO), origin);
        let mid = path.position_at(origin, secs(5));
        assert!((mid.x - 5.0).abs() < 1e-9 && mid.y.abs() < 1e-9, "halfway up the first leg");
        let at_first = path.position_at(origin, secs(10));
        assert!((at_first.x - 10.0).abs() < 1e-9 && at_first.y.abs() < 1e-9);
        let second = path.position_at(origin, secs(15));
        assert!((second.x - 10.0).abs() < 1e-9 && (second.y - 10.0).abs() < 1e-9);
        let held = path.position_at(origin, secs(1000));
        assert_eq!(held, Position::new(10.0, 20.0), "position holds after the last waypoint");
    }

    #[test]
    fn path_check_rejects_malformed_trajectories() {
        assert!(NodePath::Drift { vx_mps: f64::NAN, vy_mps: 0.0 }.check().is_err());
        let backwards = NodePath::Waypoints(vec![
            Waypoint { at: secs(10), pos: Position::new(1.0, 0.0) },
            Waypoint { at: secs(5), pos: Position::new(2.0, 0.0) },
        ]);
        assert!(backwards.check().unwrap_err().contains("strictly increasing"));
        let at_zero =
            NodePath::Waypoints(vec![Waypoint { at: SimTime::ZERO, pos: Position::new(1.0, 0.0) }]);
        assert!(at_zero.check().is_err(), "a waypoint at t = 0 conflicts with the placement");
        let bad_pos = NodePath::Waypoints(vec![Waypoint {
            at: secs(1),
            pos: Position::new(f64::INFINITY, 0.0),
        }]);
        assert!(bad_pos.check().unwrap_err().contains("finite"));
    }

    #[test]
    fn default_plan_is_static_and_checks_clean() {
        let plan = MotionPlan::default();
        assert!(plan.is_static());
        assert_eq!(plan.check(&line(0), secs(10)), Ok(()));
        assert_eq!(plan.check(&line(5), secs(10)), Ok(()));
        assert_eq!(*plan.path(3), NodePath::Static, "paths beyond the vector are static");
    }

    #[test]
    fn plan_check_enforces_placement_bounds_and_tick() {
        let mut plan = MotionPlan {
            paths: vec![NodePath::Static, NodePath::Drift { vx_mps: 1.0, vy_mps: 0.0 }],
            ..MotionPlan::default()
        };
        assert_eq!(plan.check(&line(2), secs(10)), Ok(()));
        assert!(
            plan.check(&line(1), secs(10)).unwrap_err().contains("2 paths"),
            "more paths than stations"
        );
        plan.tick = SimDuration::ZERO;
        assert!(plan.check(&line(2), secs(10)).unwrap_err().contains("positive tick"));
        // A fully static plan tolerates a zero tick (it is never consulted).
        plan.paths[1] = NodePath::Static;
        assert_eq!(plan.check(&line(2), secs(10)), Ok(()));
    }

    #[test]
    fn plan_check_bounds_every_distance_the_run_computes() {
        // Finite coordinates whose difference is not: the propagation delay
        // between them was `from_secs_f64(inf)`.
        let far = [Position::new(-1.7e308, 0.0), Position::new(1.7e308, 0.0)];
        let msg = MotionPlan::default().check(&far, secs(1)).unwrap_err();
        assert!(msg.contains("positions and paths span inf m"), "{msg}");
        // A finite velocity that leaves the clock's reach by the run's end,
        // but not before it.
        let plan = MotionPlan {
            paths: vec![NodePath::Drift { vx_mps: 1e308, vy_mps: 0.0 }],
            ..MotionPlan::default()
        };
        assert!(plan.check(&line(2), SimTime::from_millis(2500)).is_err());
        assert_eq!(plan.check(&line(2), SimTime::ZERO), Ok(()));
        let across = NodePath::Waypoints(vec![
            Waypoint { at: secs(1), pos: Position::new(-1.7e308, 0.0) },
            Waypoint { at: secs(2), pos: Position::new(1.7e308, 0.0) },
        ]);
        let plan = MotionPlan { paths: vec![across], ..MotionPlan::default() };
        assert!(plan.check(&line(1), secs(1)).unwrap_err().contains("span"));
    }

    #[test]
    fn mixed_plan_reports_motion() {
        let plan = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Waypoints(vec![Waypoint { at: secs(1), pos: Position::new(5.0, 5.0) }]),
            ],
            ..MotionPlan::default()
        };
        assert!(!plan.is_static());
        assert!(!plan.path(1).is_static());
        assert!(plan.path(0).is_static());
    }
}
