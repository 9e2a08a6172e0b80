//! The shared wireless medium and the per-node reception state machine.
//!
//! Modelling follows NS-2's 802.11 PHY, which the paper relies
//! on for its collision results (Section IV-B):
//!
//! * Each transmission reaches each other station with power
//!   `Pt − PL(d) + X_σ` (fresh shadowing draw per frame *and* per receiver).
//! * Power ≥ `rx_thresh` → the frame is **decodable**; power ≥ `cs_thresh`
//!   → it is **sensed** (contributes carrier sense / busy). Below carrier
//!   sense the transmission is invisible and does not interfere.
//! * **First-lock capture** (NS-2's `CPThresh`, 10 dB): when arrivals
//!   overlap, the reception in progress survives if it is at least
//!   [`CAPTURE_THRESHOLD_DB`] stronger than the interferer; otherwise both
//!   are corrupted. A later arrival is never decodable itself while another
//!   reception is in progress, and a station that is transmitting cannot
//!   receive (half-duplex). Hidden-terminal collisions arise naturally.
//!
//! [`Medium`] computes the per-receiver reception plan for a transmission;
//! [`Receiver`] tracks overlapping arrivals at one station and reports frame
//! outcomes and channel busy/idle transitions. The simulation runner (crate
//! `wmn-netsim`) owns one `Receiver` per node and drives both from the event
//! queue.
//!
//! All three rules are threshold tests on a drawn power, so the drawn power
//! is rarely computed. Each draw is kept as its two raw words
//! ([`wmn_sim::NormalWords`]), whose top bytes give a two-sided bound on the
//! variate from two table reads; an [`RxPower`] holds those words with the
//! pair's mean and σ. Sensing, decoding and capture are decided from the
//! bounds on the power, evaluated in the same expression order as the
//! power, so a decision the bounds agree on is the exact power's (rounding
//! is monotone). Only a bound that straddles a threshold pays for the
//! logarithm, square root and cosine. Every decision and result is
//! therefore bit-identical to a simulator that computes every power.
//!
//! Each draw is keyed by its coordinates — the transmission's key and the
//! receiver ([`wmn_sim::DrawKey`]) — so a pair's power depends on nothing but
//! that pair's key. The planner can therefore leave a pair out without
//! moving any other: a pair whose mean is out of reach of carrier sense,
//! or a station the medium does not observe ([`Medium::observing`]), is
//! never drawn.

use std::cell::OnceCell;

use wmn_alloc::{count_work, Work};
use wmn_sim::{max_standard_normal, DrawKey, NodeId, NormalWords, SimDuration, SimTime, StreamRng};

/// NS-2's capture threshold (`CPThresh`): a reception in progress survives
/// interference that is at least this many dB weaker.
pub const CAPTURE_THRESHOLD_DB: f64 = 10.0;

use crate::params::PhyParams;
use crate::position::Position;

/// The received power of one arrival, in dBm: `mean + σ·z` for the pair's
/// mean power, the link's σ and one shadowing draw, kept as the draw's raw
/// words so that `z` is computed only if a comparison needs it.
///
/// [`RxPower::bounds`] is a sound `[floor, ceiling]` on the power from two
/// table reads; [`RxPower::value`] is the power itself, bit-equal to
/// `mean + σ * words.z()`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RxPower {
    mean_dbm: f64,
    sigma_db: f64,
    words: NormalWords,
}

impl RxPower {
    /// The power a draw of `words` gives a pair of mean `mean_dbm` under
    /// shadowing `sigma_db`.
    pub fn drawn(mean_dbm: f64, sigma_db: f64, words: NormalWords) -> Self {
        RxPower { mean_dbm, sigma_db, words }
    }

    /// A power known exactly, with no draw behind it: its bounds are the
    /// value itself, so no comparison ever computes a variate for it.
    pub fn known(dbm: f64) -> Self {
        RxPower::drawn(dbm, 0.0, NormalWords::default())
    }

    /// `(floor, ceiling)` with `floor ≤ value() ≤ ceiling`: the variate's
    /// bounds put through the power's own expression, swapped for σ < 0.
    /// Either end is NaN where the power could be, and NaN decides nothing.
    #[inline]
    pub fn bounds(self) -> (f64, f64) {
        let (lo, hi) = self.words.bounds();
        let (a, b) = (self.mean_dbm + self.sigma_db * lo, self.mean_dbm + self.sigma_db * hi);
        if self.sigma_db >= 0.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The exact power: the one place the medium computes a shadowing
    /// variate in full (counted as [`Work::Variates`]).
    pub fn value(self) -> f64 {
        count_work(Work::Variates, 1);
        self.mean_dbm + self.sigma_db * self.words.z()
    }
}

/// How a single planned arrival will be perceived by one receiver.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RxPlan {
    /// The receiving station.
    pub to: NodeId,
    /// Propagation delay from the transmitter.
    pub delay: SimDuration,
    /// Received power (the shadowing draw included), exact on demand.
    pub power: RxPower,
    /// Whether the arrival is strong enough to decode.
    pub decodable: bool,
}

/// A plan is an air-table entry per sensing station: it stays within six
/// words.
const _: () = assert!(std::mem::size_of::<RxPlan>() <= 48);

/// Test-side classification of one directed station pair, derived from the
/// pair's mean received power and the hard bound on a Box–Muller shadowing
/// excursion ([`wmn_sim::max_standard_normal`]).
///
/// The tests use it to say which regime a placement puts a pair in (and so
/// which outcomes of the planner's per-draw bounds a case exercises).
/// Nothing stores it and the planner does not branch on it: the two-sided
/// bound on each draw ([`wmn_sim::NormalWords::bounds`]) decides the
/// `NeverSensed` and `AlwaysDecodable` cases draw by draw, and every pair
/// takes one path.
#[cfg(test)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LinkClass {
    /// Even the largest possible shadowing excursion leaves the pair below
    /// carrier sense: the transmission is invisible there, whatever is
    /// drawn. At the paper's σ = 8 dB that takes ≈ 420 m — sparse grids
    /// have such pairs, a 60 m campus has none.
    NeverSensed,
    /// The pair's fate depends on the per-frame draw.
    Sampled,
    /// Even the most negative possible excursion stays at or above both the
    /// carrier-sense and the receive threshold: every frame is sensed and
    /// decodable (its drawn power still feeds the capture comparison).
    AlwaysDecodable,
}

#[cfg(test)]
impl LinkClass {
    /// The class of a pair whose mean received power is `mean` dBm, against
    /// the largest shadowing excursion any frame can draw.
    fn of(params: &PhyParams, mean: f64) -> Self {
        let link = &params.link;
        let max_excursion_db = link.sigma_db.abs() * wmn_sim::max_standard_normal();
        // AlwaysDecodable must clear *both* thresholds at the most negative
        // possible excursion: `LinkModel` fields are public, so cs_thresh
        // above rx_thresh is a legal (if odd) configuration, and the naive
        // path would still drop sub-carrier-sense samples there.
        let min_power = mean - max_excursion_db;
        if mean + max_excursion_db < link.cs_thresh_dbm {
            LinkClass::NeverSensed
        } else if min_power >= link.rx_thresh_dbm && min_power >= link.cs_thresh_dbm {
            LinkClass::AlwaysDecodable
        } else {
            LinkClass::Sampled
        }
    }
}

/// The shared wireless medium: node positions plus the propagation model.
///
/// A medium **observes** a set of stations ([`Medium::observing`]; every
/// station for [`Medium::new`]): only they transmit and only they are
/// planned receptions. An untraced run observes the stations some flow's
/// path names; a traced run, every station.
///
/// The deterministic part of the propagation model is cached per observed
/// station, one **row** each: the mean received power and the propagation
/// delay from that station to every observed station, indexed by the
/// receiver's slot (its rank among the observed), 16 bytes per entry. Only
/// the planner builds rows, the first time a station transmits, so
/// construction evaluates no pair and a run pays only for the stations that
/// transmit (route refresh builds its graph from [`Medium::positions`], not
/// from rows). [`Medium::plan_transmission`] is then a walk of the
/// transmitter's mean-power row that adds one fresh shadowing draw per pair,
/// reading the delay only for the stations that sense the frame, instead of
/// re-deriving the geometry and path loss on every transmission.
///
/// Both values are functions of the pair's distance alone, and `hypot` is
/// sign-symmetric, so entry `b` of row `a` and entry `a` of row `b` always
/// hold the same bits. A new row therefore copies each entry whose mirror
/// sits in an existing row and evaluates only the rest: a pass that reads
/// every row evaluates each of the m(m+1)/2 unordered pairs of the m
/// observed stations once.
///
/// Stations may move mid-run: [`Medium::update_node_positions`] takes one
/// mobility tick's worth of moves and re-evaluates, **once**, every
/// unordered pair with a moved endpoint that an existing row holds, writing
/// it into each existing row in place (rows are refreshed, not dropped, so
/// a transmitter keeps its row across ticks). No row holds an unobserved
/// station, so its move costs only its position write. The same function
/// evaluates the pair for a row build and for a refresh, so after any
/// sequence of moves every row is bit-identical to the one a fresh medium
/// over the current placement would build — and to the entries at the
/// observed slots of the row `Medium::new` would build. Each evaluation is
/// counted as [`Work::LinkEvaluations`].
///
/// The row cache sits behind `&self` (the planner takes `&self`), so
/// `Medium` is `Send` but not `Sync`: one run's `Runner` owns it.
///
/// # Example
///
/// ```
/// use wmn_phy::{Medium, PhyParams, Position};
/// use wmn_sim::{NodeId, StreamRng};
///
/// let medium = Medium::new(
///     PhyParams::paper_216(),
///     vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
/// );
/// let mut rng = StreamRng::derive(1, "medium");
/// let plans = medium.plan_transmission(NodeId::new(0), &mut rng);
/// // At 5 m the neighbour almost always senses the frame.
/// assert!(plans.len() <= 1);
/// ```
#[derive(Debug)]
pub struct Medium {
    params: PhyParams,
    positions: Vec<Position>,
    /// The observed stations, ascending: slot `k` is station `observed[k]`.
    observed: Box<[NodeId]>,
    /// Slot `k`'s row, built on first read (see the type docs).
    rows: Box<[OnceCell<Row>]>,
    /// Scratch for [`Medium::update_node_positions`]: which stations the
    /// batch in progress moves. All `false` between calls.
    moved: Vec<bool>,
    /// `|σ| · max_standard_normal()`: no draw lifts a pair's power more
    /// than this above its mean.
    reach_db: f64,
}

/// One observed station's link state to every observed station, indexed by
/// the receiver's slot. The station's own entry is the zero-distance pair,
/// never read by the planner.
#[derive(Debug)]
struct Row {
    /// Mean received power in dBm (transmit power minus mean path loss).
    mean_rx_dbm: Box<[f64]>,
    /// Propagation delay.
    delay: Box<[SimDuration]>,
}

impl Row {
    fn set(&mut self, slot: usize, (mean, delay): (f64, SimDuration)) {
        self.mean_rx_dbm[slot] = mean;
        self.delay[slot] = delay;
    }
}

impl Medium {
    /// Creates a medium over the given station placement that observes
    /// every station. No pair is evaluated here: each station's row is
    /// built the first time it is read (see the type docs), so construction
    /// costs O(n).
    pub fn new(params: PhyParams, positions: Vec<Position>) -> Self {
        let every = (0..positions.len() as u32).map(NodeId::new).collect();
        Medium::over(params, positions, every)
    }

    /// Creates a medium over the given station placement that observes only
    /// the `observed` stations: rows hold one entry per observed station,
    /// and only observed stations may transmit. Plans from an observed
    /// transmitter are exactly [`Medium::new`]'s plans to the observed
    /// stations, since each pair's draw is keyed to that pair alone.
    ///
    /// # Panics
    ///
    /// Panics unless `observed` is strictly ascending and every station in
    /// it is in range.
    pub fn observing(params: PhyParams, positions: Vec<Position>, observed: &[NodeId]) -> Self {
        assert!(
            observed.windows(2).all(|w| w[0] < w[1])
                && observed.iter().all(|station| station.index() < positions.len()),
            "observed stations must be ascending, distinct and in range"
        );
        Medium::over(params, positions, observed.into())
    }

    fn over(params: PhyParams, positions: Vec<Position>, observed: Box<[NodeId]>) -> Self {
        Medium {
            reach_db: params.link.sigma_db.abs() * max_standard_normal(),
            params,
            moved: vec![false; positions.len()],
            positions,
            rows: observed.iter().map(|_| OnceCell::new()).collect(),
            observed,
        }
    }

    /// Moves one station: the one-element case of
    /// [`Medium::update_node_positions`] (at most one pair evaluation per
    /// observed station).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn update_node_position(&mut self, node: NodeId, position: Position) {
        self.update_node_positions(&[(node, position)]);
    }

    /// Applies one batch of station moves — typically everything a mobility
    /// tick moved — and refreshes exactly the cached entries the batch can
    /// affect. All new positions are written first; then every unordered
    /// pair of observed stations with at least one moved endpoint, and with
    /// at least one endpoint whose row exists, is evaluated **once** and
    /// written into each of the two rows that exists. A tick that moves all
    /// m observed stations with every row built therefore costs m(m+1)/2
    /// evaluations, where m single-station updates cost m² (and each touches
    /// pairs a later update overwrites). Rows are refreshed in place, never
    /// dropped; pairs no row holds cost nothing until a row that holds them
    /// is built, and a moved unobserved station costs only its position.
    ///
    /// The entries are computed by the same function as a row build, so
    /// after any sequence of batches every row reads bit-identical to a
    /// fresh medium over the current placement — which is also what the
    /// same moves applied one at a time converge to (pinned by this module's
    /// tests). No RNG is touched: link state is the deterministic part of
    /// the model, and per-frame shadowing draws keep their stream positions
    /// regardless of position changes.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range, or if a node is listed twice in
    /// one batch (which of its two positions should win is the caller's
    /// bug to resolve, not something to pick silently).
    pub fn update_node_positions(&mut self, moves: &[(NodeId, Position)]) {
        let n = self.positions.len();
        for &(node, position) in moves {
            assert!(node.index() < n, "node id out of range");
            assert!(!self.moved[node.index()], "node {} listed twice in one batch", node.index());
            self.moved[node.index()] = true;
            self.positions[node.index()] = position;
        }
        let mut evaluated = 0;
        for &(node, _) in moves {
            if let Some(slot) = self.slot(node) {
                evaluated += self.refresh_pairs_of(slot);
            }
        }
        for &(node, _) in moves {
            self.moved[node.index()] = false;
        }
        count_work(Work::LinkEvaluations, evaluated);
    }

    /// Re-evaluates every pair of observed stations `{slot, other}` that an
    /// existing row holds from the current positions and writes it into
    /// both rows, where they exist; returns how many it evaluated. A pair
    /// of two moved stations belongs to the lower slot, so a batch
    /// evaluates it once.
    fn refresh_pairs_of(&mut self, slot: usize) -> u64 {
        let position = self.positions[self.observed[slot].index()];
        let own_row = self.rows[slot].get().is_some();
        let mut evaluated = 0;
        for other in 0..self.observed.len() {
            let station = self.observed[other].index();
            if self.moved[station] && other < slot {
                continue;
            }
            if !own_row && self.rows[other].get().is_none() {
                continue;
            }
            let pair = self.evaluate(position, self.positions[station]);
            evaluated += 1;
            if let Some(row) = self.rows[other].get_mut() {
                row.set(slot, pair);
            }
            if let Some(row) = self.rows[slot].get_mut() {
                row.set(other, pair);
            }
        }
        evaluated
    }

    /// The deterministic part of the propagation model for the pair
    /// `{a, b}`: mean received power and propagation delay. This is the
    /// **single** place it is evaluated — row builds and move refreshes
    /// both come here, and count what they ask for — and either argument
    /// order gives the same bits.
    fn evaluate(&self, a: Position, b: Position) -> (f64, SimDuration) {
        let d = a.distance_to(b);
        (self.params.link.mean_rx_dbm(d), self.params.propagation_delay(d))
    }

    /// `node`'s slot, if the medium observes it.
    fn slot(&self, node: NodeId) -> Option<usize> {
        self.observed.binary_search(&node).ok()
    }

    /// Slot `slot`'s row, built on first use.
    fn row(&self, slot: usize) -> &Row {
        self.rows[slot].get_or_init(|| self.build_row(slot))
    }

    /// Builds slot `slot`'s row: each entry is copied from its mirror where
    /// the other station's row exists, and evaluated otherwise. Out of
    /// line, so the planner's per-pair loop compiles as if the row were
    /// always there.
    #[cold]
    #[inline(never)]
    fn build_row(&self, slot: usize) -> Row {
        let m = self.observed.len();
        let position = self.positions[self.observed[slot].index()];
        let mut mean_rx_dbm = Vec::with_capacity(m);
        let mut delay = Vec::with_capacity(m);
        let mut evaluated = 0;
        for (cell, station) in self.rows.iter().zip(&*self.observed) {
            let (mean, d) = match cell.get() {
                Some(row) => (row.mean_rx_dbm[slot], row.delay[slot]),
                None => {
                    evaluated += 1;
                    self.evaluate(position, self.positions[station.index()])
                }
            };
            mean_rx_dbm.push(mean);
            delay.push(d);
        }
        count_work(Work::LinkEvaluations, evaluated);
        Row { mean_rx_dbm: mean_rx_dbm.into_boxed_slice(), delay: delay.into_boxed_slice() }
    }

    /// How many rows have been built.
    #[cfg(test)]
    fn rows_built(&self) -> usize {
        self.rows.iter().filter(|row| row.get().is_some()).count()
    }

    /// Entry `to` of station `from`'s row as `(mean bits, delay)`, if that
    /// row exists; builds nothing.
    #[cfg(test)]
    fn cached(&self, from: usize, to: usize) -> Option<(u64, SimDuration)> {
        let slot = |node: usize| self.observed_slot(NodeId::new(node as u32));
        let (from, to) = (slot(from), slot(to));
        self.rows[from].get().map(|row| (row.mean_rx_dbm[to].to_bits(), row.delay[to]))
    }

    /// The slot of a station the test knows is observed.
    #[cfg(test)]
    fn observed_slot(&self, node: NodeId) -> usize {
        self.slot(node).expect("an observed station")
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The placement of a station.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// The PHY parameter set this medium was built with.
    pub fn params(&self) -> &PhyParams {
        &self.params
    }

    /// The *current* placement of every station, in node-id order.
    ///
    /// Under mobility this reflects every [`Medium::update_node_positions`]
    /// batch applied so far — it is the live view routing-refresh passes rebuild
    /// their link graphs from.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Mean received power (dBm) over the directed pair, read from `from`'s
    /// row (built on this read if no transmission or earlier read has).
    #[cfg(test)]
    fn mean_rx_dbm(&self, from: NodeId, to: NodeId) -> f64 {
        self.entry(from, to).0
    }

    /// The propagation delay the planner books for the directed pair.
    #[cfg(test)]
    fn delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.entry(from, to).1
    }

    /// Entry `to` of `from`'s row, built on this read if need be; both
    /// stations must be observed.
    #[cfg(test)]
    fn entry(&self, from: NodeId, to: NodeId) -> (f64, SimDuration) {
        let (row, to) = (self.row(self.observed_slot(from)), self.observed_slot(to));
        (row.mean_rx_dbm[to], row.delay[to])
    }

    /// Distance between two stations in metres, from the current placement:
    /// the same `distance_to` the rows were evaluated from.
    #[cfg(test)]
    fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_to(self.positions[b.index()])
    }

    /// The threshold classification of the directed pair, from its cached
    /// mean.
    #[cfg(test)]
    fn link_class(&self, from: NodeId, to: NodeId) -> LinkClass {
        LinkClass::of(&self.params, self.mean_rx_dbm(from, to))
    }

    /// Computes, for one transmission by `from`, the set of stations that
    /// will perceive it (power at or above carrier sense), with fresh
    /// independent shadowing draws. Stations below carrier sense are omitted
    /// — they neither decode nor defer.
    ///
    /// Allocates a fresh vector per call; hot loops should hold a scratch
    /// buffer and use [`Medium::plan_transmission_into`] instead.
    pub fn plan_transmission(&self, from: NodeId, rng: &mut StreamRng) -> Vec<RxPlan> {
        let mut plans = Vec::new();
        self.plan_transmission_into(from, rng, &mut plans);
        plans
    }

    /// Like [`Medium::plan_transmission`], but writes into a caller-owned
    /// buffer (cleared first) so a loop performs zero allocations per
    /// transmission once the buffer has grown to the neighbourhood size.
    /// Takes one word from `rng` as the transmission's key
    /// ([`Medium::plan_receptions_into`]).
    pub fn plan_transmission_into(
        &self,
        from: NodeId,
        rng: &mut StreamRng,
        plans: &mut Vec<RxPlan>,
    ) {
        self.plan_receptions_into(from, DrawKey::new(rng.next_u64()), plans);
    }

    /// Plans the transmission `key` names, by `from`, at every observed
    /// station, into `plans` (cleared first), in station order.
    ///
    /// Pair `to`'s draw is `NormalWords::keyed(key, to)`, so a station
    /// the medium does not observe moves no other station's plan: the plans
    /// are exactly the plans an every-station medium makes to the observed
    /// stations. A pair whose mean power plus the largest excursion any draw
    /// can give stays below carrier sense is never sensed, and is skipped
    /// before it is drawn. Sensing (`≥ cs`) and decoding (`≥ rx`) are
    /// decided from the power's two-sided bound ([`RxPower::bounds`]); the
    /// variate is computed only when that bound straddles a threshold the
    /// decision needs — on a campus, for well under one pair in a hundred.
    /// The plan carries the power lazily, for the capture rule to bound in
    /// turn.
    ///
    /// # Panics
    ///
    /// Panics if the medium does not observe `from`.
    pub fn plan_receptions_into(&self, from: NodeId, key: DrawKey, plans: &mut Vec<RxPlan>) {
        plans.clear();
        let link = &self.params.link;
        let (sigma, cs, rx) = (link.sigma_db, link.cs_thresh_dbm, link.rx_thresh_dbm);
        let own = self.slot(from).expect("only an observed station transmits");
        let (row, reach) = (self.row(own), self.reach_db);
        let mut drawn = 0;
        for (slot, (&mean, &to)) in row.mean_rx_dbm.iter().zip(&*self.observed).enumerate() {
            if slot == own || mean + reach < cs {
                continue;
            }
            drawn += 1;
            let power = RxPower::drawn(mean, sigma, NormalWords::keyed(key, to.index() as u64));
            let (floor, ceiling) = power.bounds();
            if ceiling < cs {
                continue;
            }
            let decodable = if floor >= cs && (floor >= rx || ceiling < rx) {
                floor >= rx
            } else {
                let exact = power.value();
                if exact < cs {
                    continue;
                }
                exact >= rx
            };
            plans.push(RxPlan { to, delay: row.delay[slot], power, decodable });
        }
        count_work(Work::PlannerPairs, drawn);
        count_work(Work::Receptions, plans.len() as u64);
    }

    /// The pre-refactor per-call computation, kept as the oracle the cached
    /// planner is pinned against: re-derives distance, mean path loss, and
    /// thresholds for every pair on every call, and samples every power in
    /// full, from the same keys [`Medium::plan_transmission`] draws.
    #[cfg(test)]
    fn plan_transmission_naive(&self, from: NodeId, rng: &mut StreamRng) -> Vec<RxPlan> {
        let p = &self.params;
        let key = DrawKey::new(rng.next_u64());
        let mut plans = Vec::new();
        for idx in 0..self.positions.len() {
            if idx == from.index() {
                continue;
            }
            let to = NodeId::new(idx as u32);
            let d = self.positions[from.index()].distance_to(self.positions[to.index()]);
            let z = NormalWords::keyed(key, idx as u64).z();
            let power = p.link.mean_rx_dbm(d) + p.link.sigma_db * z;
            if power < p.link.cs_thresh_dbm {
                continue;
            }
            plans.push(RxPlan {
                to,
                delay: p.propagation_delay(d),
                power: RxPower::known(power),
                decodable: power >= p.link.rx_thresh_dbm,
            });
        }
        plans
    }
}

/// Outcome of one arrival at one receiver, reported when the arrival ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalOutcome {
    /// Decodable and never overlapped by another sensed arrival or by a
    /// local transmission: the frame reaches the MAC (subject to bit
    /// errors, applied by the caller).
    Clean,
    /// Sensed but corrupted by overlap / local transmission, or simply too
    /// weak to decode. Nothing reaches the MAC.
    Lost,
}

/// Channel busy/idle transition triggered by an arrival or local TX change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusyTransition {
    /// The channel just became busy at this station.
    BecameBusy,
    /// The channel just became idle at this station.
    BecameIdle,
}

#[derive(Debug)]
struct ActiveArrival {
    id: u64,
    decodable: bool,
    corrupted: bool,
    power: RxPower,
}

/// Whether a reception in progress at `held` fails to capture over a
/// newcomer at `newcomer` (bounds `newcomer_bounds`): `held − newcomer <`
/// [`CAPTURE_THRESHOLD_DB`]. Decided from the two powers' bounds when they
/// agree (the difference is monotone in each power, and so is its
/// rounding); otherwise from exact powers, the newcomer's computed at most
/// once per arrival through `newcomer_exact`. The caller bounds the
/// newcomer only if some reception in progress is still uncorrupted.
fn too_close(
    held: RxPower,
    newcomer: RxPower,
    newcomer_bounds: (f64, f64),
    newcomer_exact: &mut Option<f64>,
) -> bool {
    let (held_floor, held_ceiling) = held.bounds();
    let (new_floor, new_ceiling) = newcomer_bounds;
    if held_ceiling - new_floor < CAPTURE_THRESHOLD_DB {
        return true;
    }
    if held_floor - new_ceiling >= CAPTURE_THRESHOLD_DB {
        return false;
    }
    too_close_exactly(held, newcomer, newcomer_exact)
}

/// [`too_close`] from the exact powers: out of line, so the receiver's
/// edge handlers stay small for the bounds that decide almost every case.
#[cold]
#[inline(never)]
fn too_close_exactly(held: RxPower, newcomer: RxPower, newcomer_exact: &mut Option<f64>) -> bool {
    let newcomer = *newcomer_exact.get_or_insert_with(|| newcomer.value());
    held.value() - newcomer < CAPTURE_THRESHOLD_DB
}

/// Per-station reception state machine: overlapping sensed arrivals, local
/// transmission state, and the busy/idle signal the MAC consumes.
///
/// All arrivals passed in are sensed by construction (`Medium` filters out
/// sub-carrier-sense receptions).
#[derive(Debug)]
pub struct Receiver {
    transmitting: bool,
    arrivals: Vec<ActiveArrival>,
    idle_since: SimTime,
}

impl Receiver {
    /// Creates a receiver whose channel has been idle since time zero.
    pub fn new() -> Self {
        Receiver { transmitting: false, arrivals: Vec::new(), idle_since: SimTime::ZERO }
    }

    /// Whether the channel currently appears busy at this station (a sensed
    /// arrival in progress, or a local transmission).
    pub fn is_busy(&self) -> bool {
        self.transmitting || !self.arrivals.is_empty()
    }

    /// The instant the channel last became idle. Meaningful only while
    /// [`Receiver::is_busy`] is false.
    pub fn idle_since(&self) -> SimTime {
        self.idle_since
    }

    /// Registers the start of a sensed arrival whose power is known exactly:
    /// [`Receiver::on_planned_arrival_start`] with [`RxPower::known`].
    pub fn on_arrival_start(
        &mut self,
        id: u64,
        decodable: bool,
        power_dbm: f64,
        now: SimTime,
    ) -> Option<BusyTransition> {
        self.on_planned_arrival_start(id, decodable, RxPower::known(power_dbm), now)
    }

    /// Registers the start of a sensed arrival.
    ///
    /// An arrival that begins while another reception is in progress is
    /// itself lost; the reception in progress survives only if it is at
    /// least [`CAPTURE_THRESHOLD_DB`] stronger than the newcomer (NS-2's
    /// capture rule). Starting while the station transmits corrupts the
    /// arrival. The rule is decided from the powers' bounds, and an
    /// arrival already corrupted is not compared at all.
    pub fn on_planned_arrival_start(
        &mut self,
        id: u64,
        decodable: bool,
        power: RxPower,
        _now: SimTime,
    ) -> Option<BusyTransition> {
        let was_busy = self.is_busy();
        let mut corrupted = self.transmitting;
        if !self.arrivals.is_empty() {
            // The receiver is locked onto an earlier arrival: this one is
            // lost, and it corrupts any ongoing reception it is too close
            // to in power.
            corrupted = true;
            let (mut bounds, mut exact) = (None, None);
            for a in self.arrivals.iter_mut().filter(|a| !a.corrupted) {
                let bounds = *bounds.get_or_insert_with(|| power.bounds());
                if too_close(a.power, power, bounds, &mut exact) {
                    a.corrupted = true;
                }
            }
        }
        self.arrivals.push(ActiveArrival { id, decodable, corrupted, power });
        if was_busy {
            None
        } else {
            Some(BusyTransition::BecameBusy)
        }
    }

    /// Registers the end of a previously started arrival and reports its
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never started (a simulation-runner bug).
    pub fn on_arrival_end(
        &mut self,
        id: u64,
        now: SimTime,
    ) -> (ArrivalOutcome, Option<BusyTransition>) {
        let idx = self
            .arrivals
            .iter()
            .position(|a| a.id == id)
            .expect("arrival end without matching start");
        let arrival = self.arrivals.swap_remove(idx);
        let outcome = if arrival.decodable && !arrival.corrupted && !self.transmitting {
            ArrivalOutcome::Clean
        } else {
            ArrivalOutcome::Lost
        };
        let transition = if !self.is_busy() {
            self.idle_since = now;
            Some(BusyTransition::BecameIdle)
        } else {
            None
        };
        (outcome, transition)
    }

    /// Registers the start of a local transmission. Any arrival in progress
    /// is corrupted (half-duplex).
    pub fn on_tx_start(&mut self, _now: SimTime) -> Option<BusyTransition> {
        let was_busy = self.is_busy();
        self.transmitting = true;
        for a in &mut self.arrivals {
            a.corrupted = true;
        }
        if was_busy {
            None
        } else {
            Some(BusyTransition::BecameBusy)
        }
    }

    /// Registers the end of the local transmission.
    ///
    /// # Panics
    ///
    /// Panics if no transmission was in progress.
    pub fn on_tx_end(&mut self, now: SimTime) -> Option<BusyTransition> {
        assert!(self.transmitting, "tx end without tx start");
        self.transmitting = false;
        if !self.is_busy() {
            self.idle_since = now;
            Some(BusyTransition::BecameIdle)
        } else {
            None
        }
    }
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Plans as `(to, delay, exact power bits, decodable)`: what the planner
    /// decides and what a later `value()` reads, whichever way the power is
    /// held.
    fn plan_bits(plans: &[RxPlan]) -> Vec<(NodeId, SimDuration, u64, bool)> {
        plans.iter().map(|p| (p.to, p.delay, p.power.value().to_bits(), p.decodable)).collect()
    }

    #[test]
    fn lone_decodable_arrival_is_clean() {
        let mut rx = Receiver::new();
        assert_eq!(rx.on_arrival_start(1, true, -50.0, t(0)), Some(BusyTransition::BecameBusy));
        assert!(rx.is_busy());
        let (outcome, trans) = rx.on_arrival_end(1, t(50));
        assert_eq!(outcome, ArrivalOutcome::Clean);
        assert_eq!(trans, Some(BusyTransition::BecameIdle));
        assert_eq!(rx.idle_since(), t(50));
    }

    #[test]
    fn sensed_but_weak_arrival_is_lost() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, false, -70.0, t(0));
        let (outcome, _) = rx.on_arrival_end(1, t(10));
        assert_eq!(outcome, ArrivalOutcome::Lost);
    }

    #[test]
    fn comparable_power_overlap_corrupts_both() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -60.0, t(0));
        assert_eq!(rx.on_arrival_start(2, true, -62.0, t(5)), None, "already busy");
        let (o1, tr1) = rx.on_arrival_end(1, t(20));
        assert_eq!(o1, ArrivalOutcome::Lost);
        assert_eq!(tr1, None, "second arrival still active");
        let (o2, tr2) = rx.on_arrival_end(2, t(30));
        assert_eq!(o2, ArrivalOutcome::Lost);
        assert_eq!(tr2, Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn late_overlap_corrupts_earlier_arrival() {
        // Hidden-terminal case: the earlier frame is nearly done when a
        // comparable-power collider starts — it must still be corrupted.
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -60.0, t(0));
        rx.on_arrival_start(2, false, -63.0, t(49));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Lost);
    }

    #[test]
    fn strong_reception_captures_over_weak_interference() {
        // NS-2 capture: a 24 dB stronger reception in progress survives a
        // weak hidden-terminal arrival; the weak arrival is lost.
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -50.0, t(0));
        rx.on_arrival_start(2, true, -74.0, t(10));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Clean, "captured reception survives");
        let (o2, _) = rx.on_arrival_end(2, t(60));
        assert_eq!(o2, ArrivalOutcome::Lost, "the latecomer is always lost");
    }

    #[test]
    fn strong_latecomer_destroys_weak_reception() {
        // The locked-on weak frame cannot survive a much stronger collider,
        // and the collider itself is not decodable either (no re-locking).
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -74.0, t(0));
        rx.on_arrival_start(2, true, -50.0, t(10));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Lost);
        let (o2, _) = rx.on_arrival_end(2, t(60));
        assert_eq!(o2, ArrivalOutcome::Lost);
    }

    #[test]
    fn transmission_corrupts_reception() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -50.0, t(0));
        assert_eq!(rx.on_tx_start(t(5)), None);
        let (o, _) = rx.on_arrival_end(1, t(20));
        assert_eq!(o, ArrivalOutcome::Lost);
        assert!(rx.is_busy(), "still transmitting");
        assert_eq!(rx.on_tx_end(t(40)), Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn arrival_during_tx_is_lost() {
        let mut rx = Receiver::new();
        assert_eq!(rx.on_tx_start(t(0)), Some(BusyTransition::BecameBusy));
        rx.on_arrival_start(1, true, -50.0, t(5));
        rx.on_tx_end(t(10));
        let (o, trans) = rx.on_arrival_end(1, t(20));
        assert_eq!(o, ArrivalOutcome::Lost);
        assert_eq!(trans, Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn idle_since_tracks_last_transition() {
        let mut rx = Receiver::new();
        assert_eq!(rx.idle_since(), SimTime::ZERO);
        rx.on_arrival_start(1, true, -50.0, t(10));
        rx.on_arrival_end(1, t(60));
        assert_eq!(rx.idle_since(), t(60));
        assert!(!rx.is_busy());
    }

    #[test]
    #[should_panic(expected = "without matching start")]
    fn unknown_arrival_end_panics() {
        let mut rx = Receiver::new();
        let _ = rx.on_arrival_end(99, t(0));
    }

    #[test]
    fn medium_plans_exclude_transmitter_and_far_nodes() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            vec![
                Position::new(0.0, 0.0),
                Position::new(5.0, 0.0),
                Position::new(1000.0, 0.0), // far outside carrier sense
            ],
        );
        let mut rng = StreamRng::derive(2, "plan");
        let mut neighbour_seen = 0;
        let mut far_seen = 0;
        for _ in 0..200 {
            for plan in medium.plan_transmission(NodeId::new(0), &mut rng) {
                assert_ne!(plan.to, NodeId::new(0), "never deliver to self");
                match plan.to.index() {
                    1 => neighbour_seen += 1,
                    2 => far_seen += 1,
                    _ => unreachable!(),
                }
            }
        }
        assert!(neighbour_seen > 190, "5 m neighbour almost always sensed");
        assert_eq!(far_seen, 0, "1 km station never sensed");
    }

    #[test]
    fn medium_decodable_fraction_matches_analytic() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let analytic = params.link.delivery(10.0);
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(10.0, 0.0)]);
        let mut rng = StreamRng::derive(9, "frac");
        let n = 20_000;
        let decodable = (0..n)
            .filter(|_| {
                medium.plan_transmission(NodeId::new(0), &mut rng).iter().any(|p| p.decodable)
            })
            .count() as f64
            / n as f64;
        assert!(
            (decodable - analytic).abs() < 0.02,
            "empirical {decodable} vs analytic {analytic}"
        );
    }

    #[test]
    fn link_classification_matches_paper_regimes() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            vec![
                Position::new(0.0, 0.0),
                Position::new(5.0, 0.0),    // good link: draw-dependent
                Position::new(1000.0, 0.0), // far outside any possible excursion
            ],
        );
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled);
        assert_eq!(medium.link_class(n0, n2), LinkClass::NeverSensed);
        assert_eq!(medium.link_class(n2, n0), LinkClass::NeverSensed, "symmetric geometry");
        // Paper-calibrated precomputed quantities survive the refactor.
        assert!((medium.distance(n0, n2) - 1000.0).abs() < 1e-9);
        assert!((medium.mean_rx_dbm(n0, n1) - (-50.51)).abs() < 0.1);
    }

    #[test]
    fn tight_shadowing_yields_always_decodable_links() {
        use crate::params::PhyParams;
        // With a near-deterministic channel (σ = 0.5 dB) a 5 m link's worst
        // possible draw still clears the −65 dBm receive threshold.
        let mut params = PhyParams::paper_216();
        params.link.sigma_db = 0.5;
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)]);
        assert_eq!(medium.link_class(NodeId::new(0), NodeId::new(1)), LinkClass::AlwaysDecodable);
        let mut rng = StreamRng::derive(4, "always");
        for _ in 0..100 {
            let plans = medium.plan_transmission(NodeId::new(0), &mut rng);
            assert_eq!(plans.len(), 1);
            assert!(plans[0].decodable);
        }
    }

    #[test]
    fn inverted_thresholds_still_match_naive() {
        use crate::params::PhyParams;
        // cs_thresh above rx_thresh is a legal (if odd) configuration of the
        // public parameter record: a sample can then decode-but-not-sense,
        // and the naive path drops it. AlwaysDecodable must not claim such
        // links. Regression for the classification requiring *both*
        // thresholds at the worst-case excursion.
        // At 13.5 m the mean (~ -72 dBm) sits between the thresholds: the
        // worst-case draw clears rx (-80) but samples straddle cs (-70) —
        // exactly the regime where the unsound shortcut diverged.
        let mut params = PhyParams::paper_216();
        params.link.rx_thresh_dbm = -80.0;
        params.link.cs_thresh_dbm = -70.0;
        params.link.sigma_db = 0.5;
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(13.5, 0.0)]);
        assert_eq!(
            medium.link_class(NodeId::new(0), NodeId::new(1)),
            LinkClass::Sampled,
            "must not shortcut past the higher carrier-sense threshold"
        );
        let mut rng_c = StreamRng::derive(6, "inv");
        let mut rng_n = StreamRng::derive(6, "inv");
        for _ in 0..500 {
            let cached = medium.plan_transmission(NodeId::new(0), &mut rng_c);
            let naive = medium.plan_transmission_naive(NodeId::new(0), &mut rng_n);
            assert_eq!(plan_bits(&cached), plan_bits(&naive));
        }
        assert_eq!(rng_c.next_u64(), rng_n.next_u64());
    }

    #[test]
    fn scratch_buffer_reuse_matches_fresh_allocation() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            (0..8).map(|i| Position::new(f64::from(i) * 7.0, 0.0)).collect(),
        );
        let mut scratch = Vec::new();
        let mut rng_a = StreamRng::derive(5, "scratch");
        let mut rng_b = StreamRng::derive(5, "scratch");
        for round in 0..50 {
            let from = NodeId::new(round % 8);
            medium.plan_transmission_into(from, &mut rng_a, &mut scratch);
            assert_eq!(scratch, medium.plan_transmission(from, &mut rng_b), "round {round}");
        }
    }

    /// This thread's link evaluations so far ([`Work::LinkEvaluations`]).
    fn evaluations() -> u64 {
        wmn_alloc::work_totals()[Work::LinkEvaluations as usize]
    }

    proptest! {
        /// A medium observing a random mask ≡ the every-station medium
        /// restricted to it, through random move batches interleaved with
        /// transmissions from observed stations: each plan is bit for bit
        /// the full planner's plan to the kept stations, every row holds one
        /// entry per observed station with the per-pair oracle's bits, the
        /// masked planner draws no pair it does not keep, and a batch that
        /// moves only unobserved stations evaluates nothing. The placement
        /// is a 30 m square (most stations sense, some cannot decode) plus
        /// four stations 500–1000 m out, beyond any draw's reach (≈ 420 m)
        /// of the square until a batch moves them in; some batches move only
        /// unobserved stations.
        #[test]
        fn kept_plans_are_the_full_planners_plans_to_kept_stations(
            coords in proptest::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..24),
            mask in proptest::collection::vec(any::<bool>(), 28..=28),
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..28, 0.0f64..30.0, 0.0f64..30.0), 0..6),
                    any::<bool>(),
                    (0usize..28, any::<u64>()),
                ),
                1..6,
            ),
        ) {
            use crate::params::PhyParams;
            let params = PhyParams::paper_216();
            let far = [500.0, 600.0, 800.0, 1000.0].map(|x| Position::new(x, 0.0));
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).chain(far).collect();
            let n = positions.len();
            // Station 0 is always observed: a transmitter has to be.
            let observes = |node: NodeId| node.index() == 0 || mask[node.index()];
            let observed: Vec<NodeId> = (0..n as u32).map(NodeId::new).filter(|&i| observes(i)).collect();
            let mut full = Medium::new(params.clone(), positions.clone());
            let mut masked = Medium::observing(params.clone(), positions.clone(), &observed);
            for (batch, only_unobserved, (pick, seed)) in &steps {
                let mut moves: Vec<(NodeId, Position)> = Vec::new();
                for &(node, x, y) in batch {
                    let node = NodeId::new((node % n) as u32);
                    let kept = !only_unobserved || !observes(node);
                    if kept && moves.iter().all(|&(m, _)| m != node) {
                        positions[node.index()] = Position::new(x, y);
                        moves.push((node, Position::new(x, y)));
                    }
                }
                full.update_node_positions(&moves);
                let before = evaluations();
                masked.update_node_positions(&moves);
                if *only_unobserved {
                    prop_assert_eq!(evaluations(), before, "unobserved moves evaluate nothing");
                }
                let (from, key) = (observed[pick % observed.len()], DrawKey::new(*seed));
                let (mut kept, mut every) = (Vec::new(), Vec::new());
                let before = wmn_alloc::work_totals()[Work::PlannerPairs as usize];
                masked.plan_receptions_into(from, key, &mut kept);
                let drawn = wmn_alloc::work_totals()[Work::PlannerPairs as usize] - before;
                full.plan_receptions_into(from, key, &mut every);
                every.retain(|plan| observes(plan.to));
                prop_assert_eq!(plan_bits(&kept), plan_bits(&every));
                let origin = positions[from.index()];
                let near = observed
                    .iter()
                    .filter(|to| **to != from && positions[to.index()].distance_to(origin) < 450.0)
                    .count();
                prop_assert!(drawn <= near as u64, "{} pairs drawn, {} kept in reach", drawn, near);
                for row in masked.rows.iter().filter_map(OnceCell::get) {
                    prop_assert_eq!(row.mean_rx_dbm.len(), observed.len());
                }
                for &a in &observed {
                    for &b in &observed {
                        if let Some(entry) = masked.cached(a.index(), b.index()) {
                            let (_, mean, delay, _) =
                                link_state(&params, positions[a.index()], positions[b.index()]);
                            prop_assert_eq!(entry, (mean, delay), "row {} entry {}", a.index(), b.index());
                        }
                    }
                }
            }
        }
    }

    /// One directed pair, bit for bit: `(distance bits, mean bits, delay,
    /// class)`.
    type LinkState = (u64, u64, SimDuration, LinkClass);

    /// The per-pair computation of the layout that cached all four fields
    /// per directed pair, kept as the oracle the two-array layout is pinned
    /// against: every field re-derived from the two positions.
    fn link_state(params: &PhyParams, a: Position, b: Position) -> LinkState {
        let d = a.distance_to(b);
        let mean = params.link.mean_rx_dbm(d);
        (d.to_bits(), mean.to_bits(), params.propagation_delay(d), LinkClass::of(params, mean))
    }

    /// The directed pair `(from, to)` through the medium's accessors.
    fn link(m: &Medium, from: usize, to: usize) -> LinkState {
        let (a, b) = (NodeId::new(from as u32), NodeId::new(to as u32));
        (
            m.distance(a, b).to_bits(),
            m.mean_rx_dbm(a, b).to_bits(),
            m.delay(a, b),
            m.link_class(a, b),
        )
    }

    /// Asserts two media hold bit-identical link state for every directed
    /// pair (floats compared via `to_bits`, classification exactly).
    fn assert_links_identical(a: &Medium, b: &Medium, context: &str) {
        let n = a.node_count();
        assert_eq!(n, b.node_count(), "{context}: station counts differ");
        for i in 0..n {
            for j in 0..n {
                assert_eq!(link(a, i, j), link(b, i, j), "{context}: [{i}][{j}]");
            }
        }
    }

    /// Asserts every directed entry holds the same bits as its mirror.
    fn assert_links_symmetric(m: &Medium, context: &str) {
        let n = m.node_count();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(link(m, i, j), link(m, j, i), "{context}: [{i}][{j}]");
            }
        }
    }

    #[test]
    fn incremental_refresh_matches_full_reconstruction() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let mut positions: Vec<Position> =
            (0..7).map(|i| Position::new(f64::from(i) * 60.0, f64::from(i % 3) * 45.0)).collect();
        let mut medium = Medium::new(params.clone(), positions.clone());
        // Walk one node across every propagation regime (near, mid, beyond
        // any possible excursion), moving other nodes in between so stale
        // rows would be caught.
        let moves: [(u32, f64, f64); 5] =
            [(2, 3.0, 4.0), (0, 500.0, 0.0), (2, 120.0, 80.0), (6, 1.0, 1.0), (3, 417.0, 0.0)];
        for (step, (node, x, y)) in moves.into_iter().enumerate() {
            let pos = Position::new(x, y);
            positions[node as usize] = pos;
            medium.update_node_position(NodeId::new(node), pos);
            let rebuilt = Medium::new(params.clone(), positions.clone());
            assert_links_identical(&medium, &rebuilt, &format!("move {step}"));
            // The planner sees the refreshed matrix exactly as a rebuild
            // would, including the RNG stream position afterwards.
            let mut rng_a = StreamRng::derive(step as u64, "refresh");
            let mut rng_b = StreamRng::derive(step as u64, "refresh");
            for from in 0..positions.len() {
                let from = NodeId::new(from as u32);
                assert_eq!(
                    medium.plan_transmission(from, &mut rng_a),
                    rebuilt.plan_transmission(from, &mut rng_b),
                );
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn update_reclassifies_links_across_thresholds() {
        use crate::params::PhyParams;
        let mut medium = Medium::new(
            PhyParams::paper_216(),
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
        );
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled);
        medium.update_node_position(n1, Position::new(1000.0, 0.0));
        assert_eq!(medium.link_class(n0, n1), LinkClass::NeverSensed);
        assert_eq!(medium.link_class(n1, n0), LinkClass::NeverSensed, "column refreshed too");
        assert!((medium.distance(n0, n1) - 1000.0).abs() < 1e-9);
        medium.update_node_position(n1, Position::new(5.0, 0.0));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled, "move back restores the link");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_out_of_range_ids() {
        use crate::params::PhyParams;
        let mut medium = Medium::new(PhyParams::paper_216(), vec![Position::new(0.0, 0.0)]);
        medium.update_node_position(NodeId::new(3), Position::new(1.0, 1.0));
    }

    #[test]
    fn batch_of_every_node_matches_rebuild_and_leaves_no_marks() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let start: Vec<Position> = (0..9)
            .map(|i| Position::new(f64::from(i % 3) * 40.0, f64::from(i / 3) * 25.0))
            .collect();
        let mut medium = Medium::new(params.clone(), start.clone());
        // Two whole-placement ticks in a row: the second would skip pairs
        // if the first left its scratch marks behind.
        for tick in 1..=2 {
            let moved: Vec<Position> = start
                .iter()
                .enumerate()
                .map(|(i, p)| Position::new(p.x + 3.0 * f64::from(tick), p.y - i as f64))
                .collect();
            let batch: Vec<(NodeId, Position)> =
                moved.iter().enumerate().map(|(i, &p)| (NodeId::new(i as u32), p)).collect();
            medium.update_node_positions(&batch);
            assert_eq!(medium.positions(), &moved[..]);
            let rebuilt = Medium::new(params.clone(), moved);
            assert_links_identical(&medium, &rebuilt, &format!("tick {tick}"));
        }
        medium.update_node_positions(&[]);
        assert_links_symmetric(&medium, "after ticks");
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn batch_rejects_a_node_listed_twice() {
        use crate::params::PhyParams;
        let mut medium = Medium::new(
            PhyParams::paper_216(),
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(9.0, 0.0)],
        );
        let n1 = NodeId::new(1);
        medium
            .update_node_positions(&[(n1, Position::new(1.0, 1.0)), (n1, Position::new(2.0, 2.0))]);
    }

    #[test]
    fn degenerate_sigma_keeps_the_hoisted_excursion_exact() {
        use crate::params::PhyParams;
        // σ < 0 is a legal (if odd) value of the public field: the excursion
        // bound uses |σ|, so the classification must match σ > 0.
        let positions =
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(300.0, 0.0)];
        let mut flipped = PhyParams::paper_216();
        flipped.link.sigma_db = -flipped.link.sigma_db;
        let a = Medium::new(PhyParams::paper_216(), positions.clone());
        let b = Medium::new(flipped, positions.clone());
        assert_links_identical(&a, &b, "sign of sigma");
        // σ = 0: no excursion at all, every pair is decided at build time.
        let mut fixed = PhyParams::paper_216();
        fixed.link.sigma_db = 0.0;
        let c = Medium::new(fixed, positions);
        assert_eq!(c.link_class(NodeId::new(0), NodeId::new(1)), LinkClass::AlwaysDecodable);
        assert_eq!(c.link_class(NodeId::new(0), NodeId::new(2)), LinkClass::NeverSensed);
    }

    #[test]
    fn rows_are_built_on_first_read_and_mirror_their_neighbours() {
        use crate::params::PhyParams;
        let n = 256;
        let grid: Vec<Position> = (0..n)
            .map(|i| Position::new(f64::from(i % 16) * 5.0, f64::from(i / 16) * 5.0))
            .collect();
        let start = evaluations();
        let medium = Medium::new(PhyParams::paper_216(), grid.clone());
        let evaluated = || (evaluations() - start) as usize;
        assert_eq!((medium.rows_built(), evaluated()), (0, 0), "new evaluates nothing");

        // Plan from k = 16 distinct stations, each one twice: k rows, and
        // the m-th new row evaluates only the n − m pairs no earlier row
        // holds.
        let n = n as usize;
        let transmitters: Vec<u32> = (0..16).map(|i| i * 17 % 256).collect();
        let mut rng = StreamRng::derive(3, "rows");
        let mut plans = Vec::new();
        for &from in transmitters.iter().chain(&transmitters) {
            medium.plan_transmission_into(NodeId::new(from), &mut rng, &mut plans);
        }
        assert_eq!(medium.rows_built(), 16);
        assert_eq!(evaluated(), (0..16).map(|m| n - m).sum::<usize>());

        // A pass that reads every row evaluates each unordered pair once.
        for from in 0..n {
            medium.mean_rx_dbm(NodeId::new(from as u32), NodeId::new(0));
        }
        assert_eq!(medium.rows_built(), n);
        assert_eq!(evaluated(), n * (n + 1) / 2);

        // A batch moving every station evaluates each unordered pair once
        // when every row exists, and nothing when none does.
        let everyone: Vec<(NodeId, Position)> = grid
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId::new(i as u32), Position::new(p.x + 1.0, p.y)))
            .collect();
        let mut built = medium;
        let before = evaluated();
        built.update_node_positions(&everyone);
        assert_eq!(evaluated() - before, n * (n + 1) / 2);
        let mut unread = Medium::new(PhyParams::paper_216(), grid);
        let before = evaluated();
        unread.update_node_positions(&everyone);
        assert_eq!((unread.rows_built(), evaluated() - before), (0, 0));
    }

    #[test]
    fn sparse_grid_has_never_sensed_pairs_dense_has_none() {
        use crate::params::PhyParams;
        // Pairs beyond ~417 m stay below carrier sense at any excursion
        // σ = 8 dB can draw: a 16×16 grid at 40 m pitch (600 m side) has
        // some, a 6×6 grid at 5 m pitch none.
        let grid = |side: u32, spacing_m: f64| -> Vec<Position> {
            (0..side * side)
                .map(|i| {
                    Position::new(f64::from(i % side) * spacing_m, f64::from(i / side) * spacing_m)
                })
                .collect()
        };
        let count_never = |m: &Medium| {
            let n = m.node_count() as u32;
            let pairs = (0..n).flat_map(|a| (0..n).map(move |b| (NodeId::new(a), NodeId::new(b))));
            pairs.filter(|&(a, b)| a != b && m.link_class(a, b) == LinkClass::NeverSensed).count()
        };
        let dense = Medium::new(PhyParams::paper_216(), grid(6, 5.0));
        let sparse = Medium::new(PhyParams::paper_216(), grid(16, 40.0));
        assert_eq!(count_never(&dense), 0, "6x6 @ 5 m: every pair draw-dependent");
        assert!(count_never(&sparse) > 0, "16x16 @ 40 m: far corners never sense each other");
    }

    proptest! {
        /// One batch ≡ the same moves applied one at a time (in either
        /// order) ≡ `Medium::new` over the final placement, on the raw bits
        /// of both directions of every pair — for a random placement and a
        /// random subset of movers, including none and all.
        #[test]
        fn prop_batched_move_matches_sequential_and_rebuild(
            coords in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 2..14),
            picks in proptest::collection::vec((any::<bool>(), 0.0f64..500.0, 0.0f64..500.0), 14..=14),
        ) {
            use crate::params::PhyParams;
            let start: Vec<Position> = coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let moves: Vec<(NodeId, Position)> = picks
                .iter()
                .take(start.len())
                .enumerate()
                .filter(|(_, &(moves, _, _))| moves)
                .map(|(i, &(_, x, y))| (NodeId::new(i as u32), Position::new(x, y)))
                .collect();
            let mut end = start.clone();
            for &(node, pos) in &moves {
                end[node.index()] = pos;
            }
            let rebuilt = Medium::new(PhyParams::paper_216(), end);

            let mut batched = Medium::new(PhyParams::paper_216(), start.clone());
            batched.update_node_positions(&moves);
            assert_links_identical(&batched, &rebuilt, "batched");
            assert_links_symmetric(&batched, "batched");

            let mut reversed = Medium::new(PhyParams::paper_216(), start.clone());
            let backwards: Vec<_> = moves.iter().rev().copied().collect();
            reversed.update_node_positions(&backwards);
            assert_links_identical(&reversed, &rebuilt, "batched, reverse order");

            let mut sequential = Medium::new(PhyParams::paper_216(), start);
            for &(node, pos) in &moves {
                sequential.update_node_position(node, pos);
            }
            assert_links_identical(&sequential, &rebuilt, "one by one");
            prop_assert_eq!(batched.positions(), rebuilt.positions());
        }

        /// After a random sequence of node moves, the incrementally
        /// refreshed matrix is bit-identical to a fresh construction over
        /// the final placement — the contract the mobility subsystem's
        /// determinism rests on.
        #[test]
        fn prop_incremental_refresh_matches_rebuild(
            coords in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 2..12),
            moves in proptest::collection::vec((0usize..12, 0.0f64..500.0, 0.0f64..500.0), 1..12),
        ) {
            use crate::params::PhyParams;
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let mut medium = Medium::new(PhyParams::paper_216(), positions.clone());
            for &(pick, x, y) in &moves {
                let node = pick % positions.len();
                positions[node] = Position::new(x, y);
                medium.update_node_position(NodeId::new(node as u32), Position::new(x, y));
            }
            let rebuilt = Medium::new(PhyParams::paper_216(), positions);
            assert_links_identical(&medium, &rebuilt, "prop rebuild");
        }

        /// The two arrays and the derived accessors report, for every
        /// directed pair and after every batch of a random move sequence,
        /// the bits the per-pair oracle computes from the current placement
        /// — in both directions, at σ of either sign, tight and zero (so all
        /// three classes occur).
        #[test]
        fn prop_two_arrays_match_the_per_pair_oracle(
            coords in proptest::collection::vec((-50.0f64..550.0, -50.0f64..550.0), 1..12),
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..12, -50.0f64..550.0, -50.0f64..550.0), 0..6),
                1..4,
            ),
            sigma_pick in 0usize..4,
        ) {
            use crate::params::PhyParams;
            let mut params = PhyParams::paper_216();
            params.link.sigma_db = [8.0, -8.0, 0.5, 0.0][sigma_pick];
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let n = positions.len();
            let mut medium = Medium::new(params.clone(), positions.clone());
            for batch in &batches {
                let mut moves: Vec<(NodeId, Position)> = Vec::new();
                for &(pick, x, y) in batch {
                    let node = NodeId::new((pick % n) as u32);
                    if moves.iter().all(|&(m, _)| m != node) {
                        positions[node.index()] = Position::new(x, y);
                        moves.push((node, Position::new(x, y)));
                    }
                }
                medium.update_node_positions(&moves);
                for i in 0..n {
                    for j in 0..n {
                        let oracle = link_state(&params, positions[i], positions[j]);
                        prop_assert_eq!(link(&medium, i, j), oracle, "[{}][{}]", i, j);
                        prop_assert_eq!(link(&medium, j, i), oracle, "[{}][{}]", j, i);
                    }
                }
            }
        }

        /// Rows that exist before a move batch are refreshed in place: a
        /// random subset of rows is built (by planner calls from random
        /// transmitters and by `mean_rx_dbm` reads) before each random
        /// batch; after it, every entry of every existing row holds the
        /// per-pair oracle's bits, and a planner call from a random
        /// transmitter — whose row may be new, copied partly from refreshed
        /// mirrors — matches the naive planner, RNG position included.
        /// After the last batch every directed pair is checked.
        #[test]
        fn prop_rows_built_before_a_move_match_the_oracle_after_it(
            coords in proptest::collection::vec((-50.0f64..550.0, -50.0f64..550.0), 1..12),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..12, 0usize..12, any::<bool>()), 0..5),
                    proptest::collection::vec((0usize..12, -50.0f64..550.0, -50.0f64..550.0), 0..6),
                    0usize..12,
                ),
                1..5,
            ),
            sigma_pick in 0usize..4,
            seed in proptest::num::u64::ANY,
        ) {
            use crate::params::PhyParams;
            let mut params = PhyParams::paper_216();
            params.link.sigma_db = [8.0, -8.0, 0.5, 0.0][sigma_pick];
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let n = positions.len();
            let node = |pick: usize| NodeId::new((pick % n) as u32);
            let mut medium = Medium::new(params.clone(), positions.clone());
            let mut rng = StreamRng::derive(seed, "rows-before-moves");
            for (step, (reads, batch, planner)) in batches.iter().enumerate() {
                for &(from, to, plan) in reads {
                    if plan {
                        medium.plan_transmission(node(from), &mut rng);
                    } else {
                        medium.mean_rx_dbm(node(from), node(to));
                    }
                }
                let mut moves: Vec<(NodeId, Position)> = Vec::new();
                for &(pick, x, y) in batch {
                    if moves.iter().all(|&(m, _)| m != node(pick)) {
                        positions[pick % n] = Position::new(x, y);
                        moves.push((node(pick), Position::new(x, y)));
                    }
                }
                medium.update_node_positions(&moves);
                for i in 0..n {
                    for j in 0..n {
                        if let Some(entry) = medium.cached(i, j) {
                            let (_, mean, delay, _) = link_state(&params, positions[i], positions[j]);
                            prop_assert_eq!(entry, (mean, delay), "row {} entry {}", i, j);
                        }
                    }
                }
                let mut rng_cached = StreamRng::derive(seed ^ step as u64, "pin");
                let mut rng_naive = StreamRng::derive(seed ^ step as u64, "pin");
                let cached = medium.plan_transmission(node(*planner), &mut rng_cached);
                let naive = medium.plan_transmission_naive(node(*planner), &mut rng_naive);
                prop_assert_eq!(plan_bits(&cached), plan_bits(&naive));
                prop_assert_eq!(rng_cached.next_u64(), rng_naive.next_u64());
            }
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(link(&medium, i, j), link_state(&params, positions[i], positions[j]));
                }
            }
        }

        /// The planner is pinned bit-identical to the pre-refactor naive
        /// computation: same plans (floats compared exactly) AND the same
        /// RNG stream position afterwards, across random topologies, seeds,
        /// and transmitters — in the three regimes its per-draw bound meets:
        /// a sparse placement (most pairs far below carrier sense), the
        /// inverted-threshold parameters of
        /// `inverted_thresholds_still_match_naive` on a placement shrunk to
        /// straddle them, and a campus-dense one (256 stations in 60 m,
        /// every pair `Sampled`, about a quarter sensing each frame). This
        /// is the determinism contract every planner optimisation must keep.
        #[test]
        fn prop_cached_planner_matches_naive_bit_for_bit(
            seed in proptest::num::u64::ANY,
            coords in proptest::collection::vec((0.0f64..400.0, 0.0f64..400.0), 2..16),
            from_pick in 0usize..256,
        ) {
            use crate::params::PhyParams;
            let sparse = Medium::new(
                PhyParams::paper_216(),
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect(),
            );
            let mut inverted = PhyParams::paper_216();
            inverted.link.rx_thresh_dbm = -80.0;
            inverted.link.cs_thresh_dbm = -70.0;
            inverted.link.sigma_db = 0.5;
            let inverted = Medium::new(
                inverted,
                coords.iter().map(|&(x, y)| Position::new(x / 10.0, y / 10.0)).collect(),
            );
            let mut place = StreamRng::derive(seed, "dense-placement");
            let dense = Medium::new(
                PhyParams::paper_216(),
                (0..256)
                    .map(|_| Position::new(place.uniform() * 60.0, place.uniform() * 60.0))
                    .collect(),
            );
            for medium in [&sparse, &inverted, &dense] {
                let n = medium.node_count();
                let from = NodeId::new((from_pick % n) as u32);
                let mut rng_cached = StreamRng::derive(seed, "pin");
                let mut rng_naive = StreamRng::derive(seed, "pin");
                let mut sensed = 0;
                for _ in 0..8 {
                    let cached = medium.plan_transmission(from, &mut rng_cached);
                    let naive = medium.plan_transmission_naive(from, &mut rng_naive);
                    prop_assert_eq!(plan_bits(&cached), plan_bits(&naive));
                    sensed += cached.len();
                }
                // Identical draw consumption: the next raw words agree.
                for _ in 0..4 {
                    prop_assert_eq!(rng_cached.next_u64(), rng_naive.next_u64());
                }
                if n == 256 {
                    let others = (0..256).map(NodeId::new).filter(|&to| to != from);
                    prop_assert!(others.clone().all(|to| medium.link_class(from, to) == LinkClass::Sampled));
                    // Both outcomes of the bound are exercised: a corner
                    // transmitter is sensed by under a tenth of the
                    // stations, a central one by far more — never by none,
                    // never by all.
                    prop_assert!((8 * 8..8 * 192).contains(&sensed), "dense fan-out {}", sensed);
                }
            }
        }

        /// The capture rule on lazy powers ≡ the rule on their exact values:
        /// one receiver is fed `RxPower`s (drawn words, a mean and σ), the
        /// other the exact power of each through `on_arrival_start`, over a
        /// random interleaving of arrival and transmission edges (arrival
        /// starts weighted up, so receptions overlap). Powers sit on two
        /// 10 dB steps, each within ±½ dB of its step, so a weak reception
        /// overlapped by a strong one differs from it by the capture margin
        /// ± 1 dB and the bounds straddle it often; every arrival is
        /// decodable, so a wrong capture decision changes an outcome.
        /// Outcomes and transitions must be identical.
        #[test]
        fn prop_lazy_powers_capture_as_their_exact_values(
            ops in proptest::collection::vec(
                ((0u8..6, 0u8..2, -0.5f64..0.5), (0usize..3, any::<u64>())),
                1..80,
            ),
            seed in any::<u64>(),
        ) {
            let mut lazy = Receiver::new();
            let mut exact = Receiver::new();
            let words = DrawKey::new(seed);
            let mut active: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let mut transmitting = false;
            for (i, &((op, step, offset), (sigma_pick, pick))) in ops.iter().enumerate() {
                let now = SimTime::from_micros(i as u64);
                match op {
                    0..=2 => {
                        next_id += 1;
                        let sigma = [8.0, 0.5, -8.0][sigma_pick];
                        let draw = NormalWords::keyed(words, next_id);
                        let target = -60.0 - 10.0 * f64::from(step) + offset;
                        let power = RxPower::drawn(target - sigma * draw.z(), sigma, draw);
                        let value = power.value();
                        prop_assert!((value - target).abs() < 1e-9);
                        let a = lazy.on_planned_arrival_start(next_id, true, power, now);
                        let b = exact.on_arrival_start(next_id, true, value, now);
                        prop_assert_eq!(a, b, "start {}", next_id);
                        active.push(next_id);
                    }
                    3 if !active.is_empty() => {
                        let id = active.remove(pick as usize % active.len());
                        prop_assert_eq!(lazy.on_arrival_end(id, now), exact.on_arrival_end(id, now));
                    }
                    4 if !transmitting => {
                        transmitting = true;
                        prop_assert_eq!(lazy.on_tx_start(now), exact.on_tx_start(now));
                    }
                    5 if transmitting => {
                        transmitting = false;
                        prop_assert_eq!(lazy.on_tx_end(now), exact.on_tx_end(now));
                    }
                    _ => {}
                }
            }
            for id in active {
                let end = SimTime::from_micros(ops.len() as u64);
                prop_assert_eq!(lazy.on_arrival_end(id, end), exact.on_arrival_end(id, end));
            }
        }

        /// Busy transitions alternate: the receiver never reports two
        /// BecameBusy (or two BecameIdle) in a row, no matter the interleaving
        /// of arrival/tx starts and ends.
        #[test]
        fn prop_busy_transitions_alternate(ops in proptest::collection::vec(0u8..4, 1..60)) {
            let mut rx = Receiver::new();
            let mut active: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let mut transmitting = false;
            let mut last: Option<BusyTransition> = None;
            let check = |tr: Option<BusyTransition>, last: &mut Option<BusyTransition>| {
                if let Some(tr) = tr {
                    if let Some(prev) = *last {
                        prop_assert!(prev != tr, "two identical transitions in a row");
                    }
                    *last = Some(tr);
                }
                Ok(())
            };
            for (i, op) in ops.iter().enumerate() {
                let now = SimTime::from_micros(i as u64);
                match op {
                    0 => {
                        next_id += 1;
                        active.push(next_id);
                        let tr = rx.on_arrival_start(next_id, true, -60.0, now);
                        check(tr, &mut last)?;
                    }
                    1 if !active.is_empty() => {
                        let id = active.remove(0);
                        let (_, tr) = rx.on_arrival_end(id, now);
                        check(tr, &mut last)?;
                    }
                    2 if !transmitting => {
                        transmitting = true;
                        let tr = rx.on_tx_start(now);
                        check(tr, &mut last)?;
                    }
                    3 if transmitting => {
                        transmitting = false;
                        let tr = rx.on_tx_end(now);
                        check(tr, &mut last)?;
                    }
                    _ => {}
                }
            }
        }
    }
}
