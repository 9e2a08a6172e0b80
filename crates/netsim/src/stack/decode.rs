//! The clean-decode / corruption seam of the station stack.
//!
//! One implementation of the BER model for every received frame, whichever
//! driver runs the stack and whichever stream its discipline draws from —
//! so the two result families cannot drift apart on what "decoded" means.
//!
//! # Zero-copy fast path
//!
//! The draws are planned in two passes: first every subframe's survival is
//! drawn into a corruption bitmask (consuming the RNG in exactly the order
//! the old mutate-as-you-go loop did), and only *then* is anything copied.
//! A frame whose mask comes back empty — the overwhelmingly common case on
//! a healthy channel — is handed to the MAC as [`RxFrame::Shared`], a pure
//! `Arc` refcount bump of the broadcast allocation: zero heap allocations
//! per clean decode. Only a frame with at least one corrupted subframe pays
//! for a copy, and the two branches below are the only callers of
//! `DataFrame::diverged_copy` — frames are not `Clone`, so there is no other
//! way to copy one.

use std::sync::Arc;

use wmn_mac::frame::{Frame, RxFrame, SUBFRAME_OVERHEAD_BYTES};
use wmn_phy::BerModel;
use wmn_sim::StreamRng;

/// Subframe-count ceiling of the bitmask fast path. Frames wider than this
/// (none exist today; aggregation is capped at 16) take an eager-clone
/// fallback with the identical draw order.
const MASK_WIDTH: usize = 128;

/// [`BerModel::unit_survives`] for the units of one frame: the survival
/// probability (an `exp`) is recomputed only when the unit size changes,
/// and the subframes of an aggregated frame are almost always one size.
/// Same probability bits, one draw per unit in the same order — the stream
/// cannot tell.
struct UnitDraw<'a> {
    ber: &'a BerModel,
    bytes: u32,
    probability: f64,
}

impl<'a> UnitDraw<'a> {
    fn new(ber: &'a BerModel, bytes: u32) -> Self {
        UnitDraw { ber, bytes, probability: ber.unit_success_probability(bytes) }
    }

    fn survives(&mut self, bytes: u32, rng: &mut StreamRng) -> bool {
        if bytes != self.bytes {
            *self = UnitDraw::new(self.ber, bytes);
        }
        rng.chance(self.probability)
    }
}

/// Applies the i.i.d. BER model to one received frame: the header must
/// survive for anything to be decoded; each subframe's CRC fails
/// independently. Returns `None` when the header is lost, a shared handle
/// when every subframe survived, and an owned corrupted-flagged copy
/// otherwise.
///
/// Draw order (header, then each subframe in frame order, one draw each) is
/// identical on every branch — the clean/corrupt split is decided *after*
/// the draws, so this refactor is invisible to the RNG streams.
///
/// Public so the bench suite can pin the fast path's zero-allocation claim
/// with the counting allocator; simulation code reaches it from the station
/// stack's RxEnd handler.
pub fn decode_frame(ber: &BerModel, rng: &mut StreamRng, frame: &Arc<Frame>) -> Option<RxFrame> {
    let mut unit = UnitDraw::new(ber, frame.header_bytes());
    if !unit.survives(frame.header_bytes(), rng) {
        return None;
    }
    let d = match &**frame {
        // An ACK has no subframes: header survival is the whole decode.
        Frame::Ack(_) => return Some(RxFrame::Shared(Arc::clone(frame))),
        Frame::Data(d) => d,
    };
    if d.subframes.len() > MASK_WIDTH {
        return Some(decode_wide(unit, rng, d));
    }
    let mut mask: u128 = 0;
    for (i, sf) in d.subframes.iter().enumerate() {
        let bytes = SUBFRAME_OVERHEAD_BYTES + sf.packet.header.wire_bytes;
        if !unit.survives(bytes, rng) {
            mask |= 1 << i;
        }
    }
    if mask == 0 {
        return Some(RxFrame::Shared(Arc::clone(frame)));
    }
    // Copy-on-write branch: at least one subframe was corrupted, so this
    // receiver needs its own flags. The copy is shallow (the subframe
    // storage is an `Rc`); the `iter_mut` below is what detaches a private
    // copy to write the flags into.
    let mut owned = d.diverged_copy();
    for (i, sf) in owned.subframes.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            sf.corrupted = true;
        }
    }
    Some(Frame::Data(owned).into())
}

/// Fallback for frames wider than the bitmask: copy eagerly and mutate in
/// place, drawing in the exact same order as the masked path.
fn decode_wide(mut unit: UnitDraw<'_>, rng: &mut StreamRng, d: &wmn_mac::DataFrame) -> RxFrame {
    let mut owned = d.diverged_copy();
    for sf in owned.subframes.iter_mut() {
        let bytes = SUBFRAME_OVERHEAD_BYTES + sf.packet.header.wire_bytes;
        if !unit.survives(bytes, rng) {
            sf.corrupted = true;
        }
    }
    Frame::Data(owned).into()
}
