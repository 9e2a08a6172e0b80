//! The clean-decode / corruption seam of the station stack.
//!
//! One implementation of the BER model for every received frame, whichever
//! driver runs the stack and whichever stream its discipline draws from —
//! so the two result families cannot drift apart on what "decoded" means.
//!
//! # Zero-copy fast path
//!
//! Survival is drawn subframe by subframe, in frame order, and nothing is
//! copied until the first loss. A frame that loses nothing — the
//! overwhelmingly common case on a healthy channel — is handed to the MAC
//! as [`RxFrame::Shared`], a pure `Arc` refcount bump of the broadcast
//! allocation: zero heap allocations per clean decode. At the first lost
//! subframe the receiver detaches its own copy, and that loss and every
//! later one are flagged in it; the detach is the only caller of
//! `DataFrame::diverged_copy` — frames are not `Clone`, so there is no other
//! way to copy one.

use std::sync::Arc;

use wmn_mac::frame::{Frame, RxFrame, SUBFRAME_OVERHEAD_BYTES};
use wmn_phy::BerModel;
use wmn_sim::StreamRng;

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
/// One draw for the header, then one per subframe in frame order, whatever
/// the outcome and whatever the frame's width.
///
/// Public so the bench suite can pin the fast path's zero-allocation claim
/// with the counting allocator; simulation code reaches it from the station
/// stack's RxEnd handler.
pub fn decode_frame(ber: &BerModel, rng: &mut StreamRng, frame: &Arc<Frame>) -> Option<RxFrame> {
    let mut unit = UnitDraw::new(ber, frame.header_bytes());
    if !unit.survives(frame.header_bytes(), rng) {
        return None;
    }
    let Frame::Data(d) = &**frame else {
        // An ACK has no subframes: header survival is the whole decode.
        return Some(RxFrame::Shared(Arc::clone(frame)));
    };
    let mut diverged = None;
    for (i, sf) in d.subframes.iter().enumerate() {
        if !unit.survives(SUBFRAME_OVERHEAD_BYTES + sf.packet.header.wire_bytes, rng) {
            // The first write to the copy's shared subframe storage detaches
            // it (copy-on-write); later ones write in place.
            diverged.get_or_insert_with(|| d.diverged_copy()).subframes[i].corrupted = true;
        }
    }
    Some(match diverged {
        None => RxFrame::Shared(Arc::clone(frame)),
        Some(owned) => Frame::Data(owned).into(),
    })
}
