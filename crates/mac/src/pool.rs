//! Recycling buffer pools for the zero-copy frame path.
//!
//! A frame's heap state — the encoded transport bytes behind each packet and
//! the subframe vector of a data frame — is allocated **once**, when the
//! transmitter mints it from a [`FramePool`], and from then on travels by
//! reference: cloning a [`Body`] bumps a reference count, broadcasting a
//! frame shares one `Arc<Frame>` across every receiver, and a clean-channel
//! decode never touches the allocator at all. When the last handle drops,
//! the buffer is cleared and parked back in its home pool, so steady-state
//! traffic recycles a bounded working set instead of paying one
//! malloc/free pair per packet per hop.
//!
//! The invariant recycling must keep — a recycled buffer starts life empty:
//! no stale body bytes, no stale `corrupted` subframes — is what the
//! property tests below pin, over arbitrary mint/clone/drop interleavings.
//!
//! The pool is deliberately invisible to simulation results: which buffer a
//! mint returns affects addresses only, never values, so pooling cannot
//! perturb the bit-identical repro contract. A buffer is reclaimed by
//! whoever drops its frame last.
//!
//! # One thread
//!
//! Nothing here is `Send` or `Sync`, on purpose. A run is built, driven and
//! dropped on the one executor worker that called `wmn_netsim::run`; what
//! crosses threads is the `Scenario` going in and the `RunResult` coming
//! out, and neither holds a frame, a pool or a MAC. So handles are [`Rc`]
//! and free lists are [`RefCell`]s: a `Body` clone is two plain increments
//! (its bytes, its home) and its last drop a plain push, where the
//! thread-safe spelling paid two bus-locked instructions for the one and
//! about six for the other. The `compile_fail` doctests on [`FramePool`],
//! [`Body`] and [`SlotPool`] hold the contract: moving any of them to
//! another thread does not compile, so a future thread cannot be "fixed" by
//! quietly re-adding atomics here. What a second holder on the *same*
//! thread does is clone the handle (and this block is the twin that keeps
//! those doctests failing for the right reason — the names resolve):
//!
//! ```
//! fn needs_clone<T: Clone>() {}
//! needs_clone::<wmn_mac::FramePool>();
//! needs_clone::<wmn_mac::Body>();
//! needs_clone::<wmn_mac::SlotPool<u8>>();
//! ```
//!
//! The price is that a double borrow is a runtime panic, not a compile
//! error, and dropping pooled contents re-enters the pool (a subframe
//! vector's packets park their bodies; a slot's packets likewise). The
//! rule every function below keeps: **no `RefCell` borrow is held across a
//! drop of pooled contents or across a caller's closure** — clear first,
//! then borrow, and pop in a statement of its own.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::frame::Subframe;

/// Shared free lists behind a [`FramePool`] handle.
#[derive(Default)]
struct PoolInner {
    /// Parked payload buffers, each uniquely owned (strong count 1).
    bodies: RefCell<Vec<Rc<Vec<u8>>>>,
    /// Parked subframe vectors, each uniquely owned and empty.
    subframes: RefCell<Vec<Rc<Vec<Subframe>>>>,
}

/// A cloneable handle to a recyclable frame-buffer pool.
///
/// Clones share the same free lists (`Rc` inside), so a MAC entity, the
/// runner, and every in-flight [`Body`] can all return buffers to the same
/// home. Dropping the last handle frees whatever is parked.
///
/// A pool and everything minted from it stay on the thread that made them
/// (see the [module docs](self#one-thread)):
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::FramePool>();
/// ```
#[derive(Clone, Default)]
pub struct FramePool {
    inner: Rc<PoolInner>,
}

impl FramePool {
    /// A fresh pool with empty free lists.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Mints a payload buffer and fills it via `fill`, reusing a parked
    /// buffer (and its capacity) when one is available. The buffer `fill`
    /// sees is always empty.
    pub fn mint_body_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Body {
        // Popped in a statement of its own: `fill` may mint from this pool.
        let mut rc = self.inner.bodies.borrow_mut().pop().unwrap_or_default();
        let buf = Rc::get_mut(&mut rc).expect("parked body buffers are uniquely owned");
        buf.clear();
        fill(buf);
        Body { buf: Some(rc), home: Some(self.clone()) }
    }

    /// Mints a payload buffer holding a copy of `contents`.
    pub fn mint_body(&self, contents: &[u8]) -> Body {
        self.mint_body_with(|buf| buf.extend_from_slice(contents))
    }

    /// Mints an empty subframe vector, reusing a parked one (and its
    /// capacity) when available.
    pub fn mint_subframes(&self) -> SubframeVec {
        let rc = self.inner.subframes.borrow_mut().pop().unwrap_or_default();
        debug_assert!(rc.is_empty(), "parked subframe vectors are cleared before parking");
        SubframeVec { buf: Some(rc), home: Some(self.clone()) }
    }

    /// Buffers currently parked, `(bodies, subframe vectors)` — the pool's
    /// steady-state working set (test/diagnostic surface).
    pub fn parked(&self) -> (usize, usize) {
        (self.inner.bodies.borrow().len(), self.inner.subframes.borrow().len())
    }

    /// Parks a payload buffer if the caller held the last reference.
    fn park_body(&self, mut rc: Rc<Vec<u8>>) {
        if let Some(buf) = Rc::get_mut(&mut rc) {
            buf.clear();
            self.inner.bodies.borrow_mut().push(rc);
        }
        // Otherwise another Body clone is still alive; its final drop parks.
    }

    /// Parks a subframe vector if the caller held the last reference.
    /// Clearing here drops the contained packets, releasing their bodies
    /// back to *their* pools before this vector is reused — and before
    /// `subframes` is borrowed: those drops re-enter this pool.
    fn park_subframes(&self, mut rc: Rc<Vec<Subframe>>) {
        if let Some(buf) = Rc::get_mut(&mut rc) {
            buf.clear();
            self.inner.subframes.borrow_mut().push(rc);
        }
    }
}

impl fmt::Debug for FramePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (bodies, subframes) = self.parked();
        f.debug_struct("FramePool")
            .field("parked_bodies", &bodies)
            .field("parked_subframes", &subframes)
            .finish()
    }
}

/// A packet body: reference-counted, possibly pool-recycled bytes.
///
/// Cloning a `Body` is a reference-count bump — the bytes are shared, never
/// copied — which is what makes `Packet::clone` cheap enough for the MAC
/// retransmission paths to use freely. Bodies are immutable after minting;
/// dropping the last handle of a pooled body clears it and parks the buffer
/// in its home pool.
///
/// The count is not atomic — a body never leaves its run's thread:
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::Body>();
/// ```
pub struct Body {
    /// The shared bytes. `Some` until drop (the `Option` exists so `Drop`
    /// can move the `Rc` out for parking).
    buf: Option<Rc<Vec<u8>>>,
    /// The pool to park in, if pool-minted.
    home: Option<FramePool>,
}

impl Body {
    /// An empty, unpooled body.
    pub fn empty() -> Body {
        Body::from(Vec::new())
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_deref().map_or(&[], |v| v.as_slice())
    }

    /// Whether this body came from a pool (and will be parked on last drop).
    pub fn is_pooled(&self) -> bool {
        self.home.is_some()
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body { buf: Some(Rc::new(bytes)), home: None }
    }
}

impl Clone for Body {
    fn clone(&self) -> Self {
        Body { buf: self.buf.clone(), home: self.home.clone() }
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        if let (Some(rc), Some(home)) = (self.buf.take(), self.home.take()) {
            home.park_body(rc);
        }
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Body({} bytes)", self.as_slice().len())
    }
}

/// A data frame's subframe storage: reference-counted, possibly
/// pool-recycled.
///
/// Cloning shares the storage (a `DataFrame` clone is shallow here); the
/// first mutation of a *shared* vector — `DerefMut` goes through
/// [`Rc::make_mut`] — copies it, which is exactly the copy-on-write the
/// corruption seam relies on. An unshared vector mutates in place, so
/// build-then-transmit never pays the copy.
pub struct SubframeVec {
    /// The shared storage. `Some` until drop (see [`Body::buf`]).
    buf: Option<Rc<Vec<Subframe>>>,
    /// The pool to park in, if pool-minted.
    home: Option<FramePool>,
}

impl SubframeVec {
    /// An empty, unpooled vector.
    pub fn new() -> SubframeVec {
        SubframeVec::from(Vec::new())
    }

    /// Appends a subframe (copy-on-write when the storage is shared).
    pub fn push(&mut self, subframe: Subframe) {
        self.vec_mut().push(subframe);
    }

    /// The subframes as a slice.
    pub fn as_slice(&self) -> &[Subframe] {
        self.buf.as_deref().map_or(&[], |v| v.as_slice())
    }

    /// Mutable access with copy-on-write sharing semantics.
    fn vec_mut(&mut self) -> &mut Vec<Subframe> {
        Rc::make_mut(self.buf.as_mut().expect("live SubframeVec has storage"))
    }
}

impl Default for SubframeVec {
    fn default() -> Self {
        SubframeVec::new()
    }
}

impl From<Vec<Subframe>> for SubframeVec {
    fn from(subframes: Vec<Subframe>) -> Self {
        SubframeVec { buf: Some(Rc::new(subframes)), home: None }
    }
}

impl FromIterator<Subframe> for SubframeVec {
    fn from_iter<I: IntoIterator<Item = Subframe>>(iter: I) -> Self {
        SubframeVec::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl Clone for SubframeVec {
    fn clone(&self) -> Self {
        SubframeVec { buf: self.buf.clone(), home: self.home.clone() }
    }
}

impl Drop for SubframeVec {
    fn drop(&mut self) {
        if let (Some(rc), Some(home)) = (self.buf.take(), self.home.take()) {
            home.park_subframes(rc);
        }
    }
}

impl Deref for SubframeVec {
    type Target = [Subframe];

    fn deref(&self) -> &[Subframe] {
        self.as_slice()
    }
}

impl DerefMut for SubframeVec {
    fn deref_mut(&mut self) -> &mut [Subframe] {
        self.vec_mut().as_mut_slice()
    }
}

impl<'a> IntoIterator for &'a SubframeVec {
    type Item = &'a Subframe;
    type IntoIter = std::slice::Iter<'a, Subframe>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut SubframeVec {
    type Item = &'a mut Subframe;
    type IntoIter = std::slice::IterMut<'a, Subframe>;

    fn into_iter(self) -> Self::IntoIter {
        (**self).iter_mut()
    }
}

impl fmt::Debug for SubframeVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Shared free list behind a [`SlotPool`] handle.
struct SlotPoolInner<T> {
    /// Parked slot buffers, each cleared before parking.
    slots: RefCell<Vec<Vec<T>>>,
}

/// A recyclable pool of uniquely-owned scratch buffers ("slots") — the
/// [`FramePool`] sibling for the MAC's queue and reorder entries.
///
/// Where [`FramePool`] recycles *shared* frame state (reference-counted
/// bodies and subframe vectors), a `SlotPool` recycles plain `Vec<T>`
/// buffers that one owner fills, drains, and drops: the batch a saturated
/// interface queue hands to the aggregator, the contiguous run a reorder
/// buffer releases. Minting pops a parked buffer (or allocates the first
/// time), and dropping a [`Slot`] clears it and parks it back, so no stale
/// entry ever leaks across reuse (the property tests pin it).
///
/// Like its sibling, the pool is invisible to simulation results: which
/// buffer a mint returns affects addresses only, never values. And like its
/// sibling it stays on its run's thread, whatever `T` is:
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::SlotPool<u8>>();
/// ```
pub struct SlotPool<T> {
    inner: Rc<SlotPoolInner<T>>,
}

impl<T> SlotPool<T> {
    /// A fresh pool with an empty free list.
    pub fn new() -> Self {
        SlotPool { inner: Rc::new(SlotPoolInner { slots: RefCell::new(Vec::new()) }) }
    }

    /// Mints an empty slot, reusing a parked buffer (and its capacity)
    /// when one is available.
    pub fn mint(&self) -> Slot<T> {
        let buf = self.inner.slots.borrow_mut().pop().unwrap_or_default();
        debug_assert!(buf.is_empty(), "parked slots are cleared before parking");
        Slot { buf: Some(buf), home: Some(self.clone()) }
    }

    /// Buffers currently parked (test/diagnostic surface).
    pub fn parked(&self) -> usize {
        self.inner.slots.borrow().len()
    }

    /// Parks a drained buffer for reuse. Cleared before `slots` is borrowed:
    /// dropping a `T` may park a slot of its own in this pool.
    fn park(&self, mut buf: Vec<T>) {
        buf.clear();
        self.inner.slots.borrow_mut().push(buf);
    }
}

impl<T> Default for SlotPool<T> {
    fn default() -> Self {
        SlotPool::new()
    }
}

impl<T> Clone for SlotPool<T> {
    fn clone(&self) -> Self {
        SlotPool { inner: Rc::clone(&self.inner) }
    }
}

impl<T> fmt::Debug for SlotPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotPool").field("parked", &self.parked()).finish()
    }
}

/// A pool-minted scratch buffer: a `Vec<T>` that clears itself and parks
/// back in its home [`SlotPool`] on drop. Derefs to the `Vec`, so filling
/// (`push`) and draining (`drain(..)`) read like plain vector code.
pub struct Slot<T> {
    /// The buffer. `Some` until drop (the `Option` exists so `Drop` can
    /// move it out for parking).
    buf: Option<Vec<T>>,
    /// The pool to park in, if pool-minted.
    home: Option<SlotPool<T>>,
}

impl<T> Slot<T> {
    /// An empty slot with no home pool (tests, unpooled callers): behaves
    /// like a plain `Vec` and is simply dropped.
    pub fn detached() -> Slot<T> {
        Slot { buf: Some(Vec::new()), home: None }
    }

    fn vec(&self) -> &Vec<T> {
        self.buf.as_ref().expect("live slot has storage")
    }

    fn vec_mut(&mut self) -> &mut Vec<T> {
        self.buf.as_mut().expect("live slot has storage")
    }
}

impl<T> Drop for Slot<T> {
    fn drop(&mut self) {
        if let (Some(buf), Some(home)) = (self.buf.take(), self.home.take()) {
            home.park(buf);
        }
    }
}

impl<T> Deref for Slot<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        self.vec()
    }
}

impl<T> DerefMut for Slot<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        self.vec_mut()
    }
}

impl<'a, T> IntoIterator for &'a Slot<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.vec().iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.vec().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NetHeader, Packet, Proto};
    use wmn_sim::{FlowId, NodeId};

    fn packet(pool: &FramePool, payload: &[u8]) -> Packet {
        Packet::new(
            NetHeader {
                flow: FlowId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                proto: Proto::Udp,
                wire_bytes: 100,
            },
            pool.mint_body(payload),
        )
    }

    #[test]
    fn recycled_body_is_empty_with_a_fresh_generation() {
        // A fresh generation: the buffer's next occupant, which sees nothing
        // of the last one.
        let pool = FramePool::new();
        drop(pool.mint_body(b"stale contents"));
        assert_eq!(pool.parked().0, 1, "last drop parks the buffer");
        let second = pool.mint_body_with(|_| {});
        assert!(second.as_slice().is_empty(), "no stale bytes survive recycling");
        assert_eq!(pool.parked().0, 0, "the parked buffer was reused");
    }

    #[test]
    fn clones_share_bytes_and_only_the_last_drop_parks() {
        let pool = FramePool::new();
        let a = pool.mint_body(b"shared");
        let b = a.clone();
        drop(a);
        assert_eq!(pool.parked().0, 0, "a live clone keeps the buffer out");
        assert_eq!(&*b, b"shared");
        drop(b);
        assert_eq!(pool.parked().0, 1);
    }

    #[test]
    fn subframe_vec_clears_on_recycle_and_releases_bodies() {
        let pool = FramePool::new();
        let mut sfs = pool.mint_subframes();
        sfs.push(Subframe { seq: 0, packet: packet(&pool, b"xyz"), corrupted: true });
        drop(sfs);
        let (bodies, vecs) = pool.parked();
        assert_eq!(vecs, 1, "subframe vector parked");
        assert_eq!(bodies, 1, "clearing released the packet body too");
        let recycled = pool.mint_subframes();
        assert!(recycled.is_empty(), "no stale subframes (or corrupted flags) survive");
    }

    #[test]
    fn shared_subframes_copy_on_write() {
        let pool = FramePool::new();
        let mut original = pool.mint_subframes();
        original.push(Subframe { seq: 7, packet: packet(&pool, b""), corrupted: false });
        let mut copy = original.clone();
        copy[0].corrupted = true;
        assert!(!original[0].corrupted, "mutating a shared copy must not leak back");
        assert!(copy[0].corrupted);
    }

    proptest::proptest! {
        /// Whatever the mint/clone/drop interleaving, recycling never leaks
        /// state between a buffer's successive occupants: every minted body
        /// holds exactly its own contents, and every minted subframe vector
        /// starts empty — no stale bytes, no stale `corrupted` flags — even
        /// though a parked buffer is always reused before a new one is
        /// allocated.
        #[test]
        fn prop_recycling_never_leaks_stale_state(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..8, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..16)),
                1..64,
            ),
        ) {
            let pool = FramePool::new();
            let mut live_bodies: Vec<Body> = Vec::new();
            let mut live_vecs: Vec<SubframeVec> = Vec::new();
            for (op, slot, payload) in ops {
                match op {
                    // Mint a body, reusing a parked buffer if there is one:
                    // its contents are its own.
                    0 => {
                        let parked = pool.parked().0;
                        let body = pool.mint_body(&payload);
                        proptest::prop_assert_eq!(pool.parked().0, parked.saturating_sub(1));
                        proptest::prop_assert_eq!(
                            body.as_slice(), payload.as_slice(),
                            "a minted body holds exactly what it was filled with"
                        );
                        live_bodies.push(body);
                    }
                    // Mint a subframe vector and dirty it with a corrupted
                    // subframe — the stale state a later occupant must not see.
                    1 => {
                        let mut sfs = pool.mint_subframes();
                        proptest::prop_assert!(
                            sfs.is_empty(),
                            "a recycled subframe vector starts life empty"
                        );
                        let seq = u32::try_from(slot).unwrap();
                        sfs.push(Subframe { seq, packet: packet(&pool, &payload), corrupted: true });
                        live_vecs.push(sfs);
                    }
                    // Clone a live handle: sharing, not copying.
                    2 => {
                        if let Some(b) = live_bodies.get(slot % live_bodies.len().max(1)) {
                            live_bodies.push(b.clone());
                        }
                        if let Some(v) = live_vecs.get(slot % live_vecs.len().max(1)) {
                            live_vecs.push(v.clone());
                        }
                    }
                    // Drop a live handle; the last one parks its buffer.
                    _ => {
                        if !live_bodies.is_empty() {
                            live_bodies.swap_remove(slot % live_bodies.len());
                        } else if !live_vecs.is_empty() {
                            live_vecs.swap_remove(slot % live_vecs.len());
                        }
                    }
                }
            }
            // Drain everything, then remint every parked buffer: each must
            // come back empty regardless of its history.
            drop((live_bodies, live_vecs));
            let (parked_bodies, parked_vecs) = pool.parked();
            let bodies: Vec<Body> = (0..parked_bodies).map(|_| pool.mint_body_with(|_| {})).collect();
            proptest::prop_assert!(bodies.iter().all(|b| b.is_empty()), "no stale bytes survive recycling");
            let vecs: Vec<SubframeVec> = (0..parked_vecs).map(|_| pool.mint_subframes()).collect();
            proptest::prop_assert!(
                vecs.iter().all(|v| v.is_empty()),
                "no stale subframes (or corrupted flags) survive recycling"
            );
            proptest::prop_assert_eq!(pool.parked(), (0, 0), "every parked buffer was reused");
        }
    }

    /// A slot whose entries own further slots of the same pool: dropping
    /// one re-enters [`SlotPool::park`] while it is clearing.
    struct Nest {
        _inner: Slot<Nest>,
    }

    #[test]
    fn nested_last_drop_parks_everything_without_a_double_borrow() {
        use crate::frame::{DataFrame, LinkDst};
        let pool = FramePool::new();
        let queue: SlotPool<Packet> = SlotPool::new();
        let held: SlotPool<DataFrame> = SlotPool::new();

        // A queue slot and a pooled subframe vector share four bodies of one
        // pool; the vector holds a fifth of its own and rides in a data
        // frame parked in a slot of the second pool.
        let mut queued = queue.mint();
        let mut subframes = pool.mint_subframes();
        for seq in 0..4 {
            let shared = packet(&pool, b"shared by queue and frame");
            subframes.push(Subframe { seq, packet: shared.clone(), corrupted: seq % 2 == 1 });
            queued.push(shared);
        }
        subframes.push(Subframe { seq: 4, packet: packet(&pool, b"own"), corrupted: true });
        let mut frames = held.mint();
        frames.push(DataFrame {
            transmitter: NodeId::new(0),
            link_dst: LinkDst::Unicast(NodeId::new(1)),
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            frame_seq: 0,
            subframes,
            retry: 0,
        });

        // The queue goes first: its slot parks, every body is still alive
        // in the frame.
        drop(queued);
        assert_eq!((queue.parked(), pool.parked()), (1, (0, 0)));
        // Then the last holder, three parks deep: the slot clears its
        // frame, whose subframe vector clears its packets, whose bodies
        // park — each level re-entering a pool the level above is inside.
        drop(frames);
        assert_eq!((held.parked(), pool.parked()), (1, (5, 1)));

        // The same shape on ONE free list: a slot of slots of one pool.
        let nests: SlotPool<Nest> = SlotPool::new();
        let mut outer = nests.mint();
        for _ in 0..3 {
            let mut inner = nests.mint();
            inner.push(Nest { _inner: nests.mint() });
            outer.push(Nest { _inner: inner });
        }
        drop(outer);
        assert_eq!(nests.parked(), 7, "the outer slot, three inner, three innermost");

        // Everything re-mints empty, out of the parked buffers.
        let bodies: Vec<Body> = (0..5).map(|_| pool.mint_body_with(|_| {})).collect();
        assert!(bodies.iter().all(|body| body.is_empty()), "no stale bytes survive recycling");
        let recycled = pool.mint_subframes();
        assert!(recycled.is_empty(), "no stale subframe or corrupted flag");
        assert_eq!(pool.parked(), (0, 0), "all six parked buffers were reused");
        assert!(queue.mint().is_empty() && held.mint().is_empty());
        let reminted: Vec<Slot<Nest>> = (0..7).map(|_| nests.mint()).collect();
        assert!(reminted.iter().all(|nest| nest.is_empty()));
        assert_eq!(nests.parked(), 0);
    }

    #[test]
    fn a_fill_that_uses_its_own_pool_does_not_double_borrow() {
        // `fill` runs with no free list borrowed, so it may mint from — and
        // park into — the pool that is minting for it.
        let pool = FramePool::new();
        drop(pool.mint_body(b"parked"));
        let outer = pool.mint_body_with(|buf| {
            let inner = pool.mint_body(b"inner");
            buf.extend_from_slice(&inner);
        });
        assert_eq!(&*outer, b"inner");
        assert_eq!(pool.parked().0, 1, "the inner body parked while the outer was being filled");
    }

    #[test]
    fn slot_pool_recycles_capacity_across_mints() {
        let pool: SlotPool<u32> = SlotPool::new();
        let mut slot = pool.mint();
        slot.extend(0..100);
        let capacity = slot.capacity();
        assert!(capacity >= 100);
        drop(slot);
        assert_eq!(pool.parked(), 1);
        let recycled = pool.mint();
        assert!(recycled.is_empty(), "a recycled slot starts life empty");
        assert_eq!(recycled.capacity(), capacity, "recycling keeps the grown capacity");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn detached_slots_work_without_a_pool() {
        let mut slot: Slot<u8> = Slot::detached();
        slot.push(7);
        assert_eq!(slot.as_slice(), &[7]);
    }

    proptest::proptest! {
        /// Mirror of the `FramePool` pin above, for [`SlotPool`]: whatever
        /// the mint/fill/drop interleaving, a reminted slot — a fresh
        /// generation of a parked buffer, whose capacity it keeps — is
        /// always empty: no stale entries leak across reuse.
        #[test]
        fn prop_slot_remint_is_empty_with_fresh_generation(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..8, 0u32..1000),
                1..64,
            ),
        ) {
            let pool: SlotPool<u32> = SlotPool::new();
            let mut live: Vec<Slot<u32>> = Vec::new();
            for (mint, slot_idx, fill) in ops {
                if mint || live.is_empty() {
                    let parked = pool.parked();
                    let mut s = pool.mint();
                    proptest::prop_assert!(s.is_empty(), "a reminted slot starts life empty");
                    proptest::prop_assert_eq!(pool.parked(), parked.saturating_sub(1));
                    // Dirty the buffer — the stale state a later occupant
                    // must not see.
                    s.extend(std::iter::repeat_n(fill, slot_idx + 1));
                    live.push(s);
                } else {
                    live.swap_remove(slot_idx % live.len());
                }
            }
            // Drain everything, then remint every parked buffer: every one
            // was dirtied, so each keeps a capacity.
            drop(live);
            let reminted: Vec<Slot<u32>> = (0..pool.parked()).map(|_| pool.mint()).collect();
            for s in &reminted {
                proptest::prop_assert!(s.is_empty(), "no stale entries survive recycling");
                proptest::prop_assert!(s.capacity() > 0, "a parked buffer was reused");
            }
            proptest::prop_assert_eq!(pool.parked(), 0);
        }
    }

    #[test]
    fn unpooled_fallbacks_work_without_a_pool() {
        let body = Body::from(b"plain".to_vec());
        assert!(!body.is_pooled());
        let header = NetHeader {
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            proto: Proto::Udp,
            wire_bytes: 40,
        };
        let mut sfs = SubframeVec::new();
        sfs.push(Subframe { seq: 1, packet: Packet::new(header, Body::empty()), corrupted: false });
        assert_eq!(sfs.len(), 1);
    }
}
