//! Fixture: `hot-path-vec-new` true/false positives (lexed only).
//! Runs under a deterministic-crate config; constructors and cold helpers
//! may allocate freely — only MacEntity impl bodies and the named engine
//! per-event handlers are hot.

impl MacEntity for FixtureMac {
    fn on_enqueue(&mut self, now: SimTime, packet: Packet, sink: &mut ActionSink) {
        let mut staged = Vec::new(); //~ hot-path-vec-new
        staged.push(packet);
        self.queue.extend(staged);
        sink.push(MacAction::None);
    }

    fn on_frame_rx(&mut self, now: SimTime, rx: &RxFrame, sink: &mut ActionSink) {
        let acked = vec![rx.seq()]; //~ hot-path-vec-new
        self.note(acked);
        drop((now, sink));
    }

    fn helper_inside_hot_impl(&mut self) {
        // The whole MacEntity impl body is hot — helpers called from the
        // handlers churn per frame just the same.
        self.scratch = Vec::new(); //~ hot-path-vec-new
    }
}

impl<R> Csma<R> {
    // The shared CSMA core is reached from every MAC's handlers. Its
    // per-event entry points are inherent methods, outside any MacEntity
    // impl body, so they stay covered by carrying the handlers' names.
    fn on_idle(&mut self, now: SimTime, holding: bool, sink: &mut ActionSink) {
        let rearmed = Vec::new(); //~ hot-path-vec-new
        self.arm_backoff(now, rearmed, sink);
        drop(holding);
    }

    fn try_progress(&mut self, now: SimTime, holding: bool, sink: &mut ActionSink) -> bool {
        let candidates = vec![now]; //~ hot-path-vec-new
        self.decide(candidates, holding, sink)
    }
}

impl Runner {
    fn handle_delivery(&mut self, node: NodeId, packet: Packet) {
        if packet.is_last() {
            let tail = vec![node]; //~ hot-path-vec-new
            self.finish(tail);
        }
    }

    fn dispatch(&mut self, event: Event) {
        // lint:allow(hot-path-vec-new): bootstrap branch — runs once per flow, not per frame
        let once = Vec::new(); //~ waived hot-path-vec-new
        self.seed(once, event);
    }

    fn with_mac(&mut self, node: NodeId, handler: impl FnOnce(&mut dyn MacEntity, &mut ActionSink)) {
        // The MAC↔engine seam runs once per handler call: sinks are lent
        // from the engine, never built here.
        let mut spare = Vec::new(); //~ hot-path-vec-new
        spare.push(ActionSink::new());
        handler(self.macs.node(node), &mut spare[0]);
    }

    fn results(&self) -> Vec<u32> {
        // Cold path: result collection runs after the loop exits.
        let mut out = Vec::new();
        out.extend(self.counts.iter().copied());
        out
    }
}

impl Medium {
    fn plan_transmission_into(&self, from: NodeId, rng: &mut StreamRng, plans: &mut Vec<RxPlan>) {
        // The caller's scratch buffer is the point of this signature.
        let mut sensed = Vec::new(); //~ hot-path-vec-new
        self.walk_row(from, rng, &mut sensed);
        plans.extend(sensed);
    }

    fn plan_transmission(&self, from: NodeId, rng: &mut StreamRng) -> Vec<RxPlan> {
        // The allocating convenience wrapper is for tests and examples.
        let mut plans = Vec::new();
        self.plan_transmission_into(from, rng, &mut plans);
        plans
    }
}

pub fn decode_frame(ber: &BerModel, rng: &mut StreamRng, frame: &Arc<Frame>) -> Option<RxFrame> {
    // Per received frame: survival is drawn into a bitmask, not a list.
    let lost = vec![false; frame.subframes()]; //~ hot-path-vec-new
    ber.draw(rng, lost)
}

impl FixtureMac {
    pub fn new(cfg: Config) -> FixtureMac {
        // Constructors are the sanctioned place to allocate what the
        // handlers later recycle.
        FixtureMac { queue: Vec::new(), scratch: vec![], cfg }
    }
}

trait MacEntity {
    // A bodyless trait declaration must not mark the next brace hot.
    fn on_idle(&mut self, now: SimTime, sink: &mut ActionSink);
}

fn cold_free_fn() -> Vec<u32> {
    vec![1, 2, 3]
}
