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
//! malloc/free pair per packet per hop. The MAC's queue, reorder and
//! in-flight batches recycle the same way, through a [`SlotPool`].
//!
//! # One pooled vector
//!
//! Every recycled buffer is a [`PooledVec`]: a reference-counted `Vec<T>`
//! plus the [`Home`] it parks in. [`Body`], [`SubframeVec`] and [`Slot`]
//! are its names for packet bytes, a data frame's subframes and a MAC
//! batch; [`SlotPool`] is the one-list [`Pool`], and [`FramePool`] is a
//! home for both bytes and subframes behind one `Rc`. So there is one
//! `Drop` (only the last handle parks, and it clears the buffer first), one
//! copy-on-write path (`DerefMut` goes through [`Rc::make_mut`]: mutating a
//! shared buffer copies it, an unshared one mutates in place) and one
//! free-list rule.
//!
//! The invariant recycling must keep — a recycled buffer starts life empty:
//! no stale body bytes, no stale `corrupted` subframes — is what the
//! property tests below pin, over arbitrary mint/clone/mutate/drop
//! interleavings.
//!
//! The pool is deliberately invisible to simulation results: which buffer a
//! mint returns affects addresses only, never values, so pooling cannot
//! perturb the bit-identical repro contract. A buffer is reclaimed by
//! whoever drops its last handle.
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
//! rule the one `Drop` and the one mint keep: **no `RefCell` borrow is held
//! across a drop of pooled contents or across a caller's closure** — clear
//! first, then borrow, and pop in a statement of its own.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::frame::Subframe;

/// Where a [`PooledVec`] parks its buffer on its last drop: a cloneable
/// handle to a free list of buffers, each uniquely owned (strong count 1)
/// and empty.
pub trait Home<T>: Clone {
    /// The free list.
    fn free_list(&self) -> &RefCell<Vec<Rc<Vec<T>>>>;
}

/// A reference-counted, possibly pool-recycled vector.
///
/// Cloning shares the buffer (a reference-count bump, never a copy). The
/// first mutation through a *shared* handle copies the buffer — the
/// copy-on-write the corruption seam relies on, and the copy parks in the
/// same home — while an unshared handle mutates in place, so
/// build-then-transmit never pays the copy. Dropping the last handle of a
/// pooled buffer clears it and parks it in its [`Home`]. Derefs to the
/// `Vec`, so filling (`push`) and draining (`drain(..)`) read like plain
/// vector code.
pub struct PooledVec<T, H: Home<T> = Pool<T>> {
    /// The shared buffer. `Some` until drop (the `Option` exists so `Drop`
    /// can move the `Rc` out for parking).
    buf: Option<Rc<Vec<T>>>,
    /// The pool to park in, if pool-minted.
    home: Option<H>,
}

/// A packet body: pooled bytes, immutable after minting in practice, whose
/// clones make `Packet::clone` cheap enough for the MAC retransmission paths
/// to use freely.
///
/// The count is not atomic — a body never leaves its run's thread:
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::Body>();
/// ```
pub type Body = PooledVec<u8, FramePool>;

/// A data frame's subframe storage. A `DataFrame`'s diverged copy shares
/// it until the copy's first `iter_mut`.
pub type SubframeVec = PooledVec<Subframe, FramePool>;

/// A MAC batch — a queue batch, a reorder release, a frame in flight —
/// minted from a [`SlotPool`] and filled, drained and dropped by one owner.
pub type Slot<T> = PooledVec<T>;

/// The pool a [`Slot`] is minted from. Like every pool here it stays on
/// its run's thread, whatever `T` is:
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::SlotPool<u8>>();
/// ```
pub type SlotPool<T> = Pool<T>;

impl<T, H: Home<T>> PooledVec<T, H> {
    /// An empty vector with no home (tests, unpooled callers): behaves
    /// like a plain `Vec` and is simply dropped.
    pub fn new() -> Self {
        PooledVec::from(Vec::new())
    }

    /// Mints an empty vector from `home`, reusing a parked buffer (and its
    /// capacity) when one is available.
    fn mint(home: &H) -> Self {
        // Popped in a statement of its own: nothing may park while it is borrowed.
        let buf = home.free_list().borrow_mut().pop().unwrap_or_default();
        debug_assert!(buf.is_empty(), "parked buffers are cleared before parking");
        PooledVec { buf: Some(buf), home: Some(home.clone()) }
    }

    /// Whether this vector came from a pool (and parks on its last drop).
    pub fn is_pooled(&self) -> bool {
        self.home.is_some()
    }
}

impl<T, H: Home<T>> Drop for PooledVec<T, H> {
    fn drop(&mut self) {
        if let (Some(mut buf), Some(home)) = (self.buf.take(), self.home.take()) {
            // Only the last handle parks. Cleared before the free list is
            // borrowed: dropping the elements may park into this same list.
            if let Some(vec) = Rc::get_mut(&mut buf) {
                vec.clear();
                home.free_list().borrow_mut().push(buf);
            }
        }
    }
}

impl<T, H: Home<T>> Deref for PooledVec<T, H> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        self.buf.as_deref().expect("a live handle has its buffer")
    }
}

impl<T: Clone, H: Home<T>> DerefMut for PooledVec<T, H> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        Rc::make_mut(self.buf.as_mut().expect("a live handle has its buffer"))
    }
}

impl<T, H: Home<T>> Clone for PooledVec<T, H> {
    fn clone(&self) -> Self {
        PooledVec { buf: self.buf.clone(), home: self.home.clone() }
    }
}

impl<T, H: Home<T>> Default for PooledVec<T, H> {
    fn default() -> Self {
        PooledVec::new()
    }
}

impl<T, H: Home<T>> From<Vec<T>> for PooledVec<T, H> {
    fn from(vec: Vec<T>) -> Self {
        PooledVec { buf: Some(Rc::new(vec)), home: None }
    }
}

impl<T, H: Home<T>> FromIterator<T> for PooledVec<T, H> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        PooledVec::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a, T, H: Home<T>> IntoIterator for &'a PooledVec<T, H> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Clone, H: Home<T>> IntoIterator for &'a mut PooledVec<T, H> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq, H: Home<T>> PartialEq for PooledVec<T, H> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, H: Home<T>> Eq for PooledVec<T, H> {}

impl<T: fmt::Debug, H: Home<T>> fmt::Debug for PooledVec<T, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A cloneable handle to one free list: the home of [`Slot`]s.
///
/// Clones share the list (`Rc` inside), and minting pops a parked buffer
/// (or allocates the first time).
pub struct Pool<T> {
    free: Rc<RefCell<Vec<Rc<Vec<T>>>>>,
}

impl<T> Pool<T> {
    /// A fresh pool with an empty free list.
    pub fn new() -> Self {
        Pool { free: Rc::default() }
    }

    /// Mints an empty slot, reusing a parked buffer (and its capacity)
    /// when one is available.
    pub fn mint(&self) -> Slot<T> {
        PooledVec::mint(self)
    }

    /// Buffers currently parked (test/diagnostic surface).
    pub fn parked(&self) -> usize {
        self.free.borrow().len()
    }
}

impl<T> Home<T> for Pool<T> {
    fn free_list(&self) -> &RefCell<Vec<Rc<Vec<T>>>> {
        &self.free
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool::new()
    }
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool { free: Rc::clone(&self.free) }
    }
}

impl<T> fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool").field("parked", &self.parked()).finish()
    }
}

/// The free lists behind a [`FramePool`] handle.
#[derive(Default)]
struct FrameLists {
    bodies: RefCell<Vec<Rc<Vec<u8>>>>,
    subframes: RefCell<Vec<Rc<Vec<Subframe>>>>,
}

/// A cloneable handle to a station's frame-buffer pool: the home of its
/// [`Body`]s and [`SubframeVec`]s.
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
    lists: Rc<FrameLists>,
}

impl FramePool {
    /// A fresh pool with empty free lists.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Mints a payload buffer and fills it via `fill`, reusing a parked
    /// buffer (and its capacity) when one is available. The buffer `fill`
    /// sees is always empty, and no free list is borrowed while it runs.
    pub fn mint_body_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Body {
        let mut body = Body::mint(self);
        fill(&mut body);
        body
    }

    /// Mints a payload buffer holding a copy of `contents`.
    pub fn mint_body(&self, contents: &[u8]) -> Body {
        self.mint_body_with(|buf| buf.extend_from_slice(contents))
    }

    /// Mints an empty subframe vector, reusing a parked one (and its
    /// capacity) when available.
    pub fn mint_subframes(&self) -> SubframeVec {
        SubframeVec::mint(self)
    }

    /// Buffers currently parked, `(bodies, subframe vectors)` — the pool's
    /// steady-state working set (test/diagnostic surface).
    pub fn parked(&self) -> (usize, usize) {
        (self.lists.bodies.borrow().len(), self.lists.subframes.borrow().len())
    }
}

impl Home<u8> for FramePool {
    fn free_list(&self) -> &RefCell<Vec<Rc<Vec<u8>>>> {
        &self.lists.bodies
    }
}

impl Home<Subframe> for FramePool {
    fn free_list(&self) -> &RefCell<Vec<Rc<Vec<Subframe>>>> {
        &self.lists.subframes
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
    fn a_recycled_body_starts_empty() {
        let pool = FramePool::new();
        drop(pool.mint_body(b"stale contents"));
        assert_eq!(pool.parked().0, 1, "last drop parks the buffer");
        let second = pool.mint_body_with(|_| {});
        assert!(second.is_empty(), "no stale bytes survive recycling");
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
    /// one re-enters the one `Drop` while it is clearing.
    #[derive(Clone)]
    struct Nest {
        _inner: Slot<Nest>,
    }

    #[test]
    fn nested_last_drop_parks_everything_without_a_double_borrow() {
        use crate::frame::{DataFrame, LinkDst};
        let pool = FramePool::new();
        let queue: SlotPool<Packet> = SlotPool::new();
        let held: SlotPool<Rc<DataFrame>> = SlotPool::new();

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
        frames.push(Rc::new(DataFrame {
            transmitter: NodeId::new(0),
            link_dst: LinkDst::Unicast(NodeId::new(1)),
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            frame_seq: 0,
            subframes,
            retry: 0,
        }));

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
        let mut slot: Slot<u8> = Slot::new();
        slot.push(7);
        assert_eq!(slot.as_slice(), &[7]);
        assert!(!slot.is_pooled());
    }

    proptest::proptest! {
        /// The one `Drop` and the one copy-on-write path, over any
        /// interleaving of mint, fill, clone, mutate-through-a-shared-handle
        /// and drop on a `Pool<u32>`, against a model that tracks which
        /// handles share a buffer:
        ///
        /// * a mutation through one handle never shows through another;
        /// * once every handle has dropped, the pool holds every buffer ever
        ///   created — each mint that found the list empty, each
        ///   copy-on-write copy — exactly once;
        /// * every parked buffer is empty.
        #[test]
        fn prop_every_buffer_parks_once_and_empty(
            ops in proptest::collection::vec((0u8..5, 0usize..8, 0u32..1000), 1..64),
        ) {
            let pool: Pool<u32> = Pool::new();
            // Each live handle, the id of the buffer it holds, and what that
            // buffer should contain.
            let mut live: Vec<(Slot<u32>, usize, Vec<u32>)> = Vec::new();
            let (mut created, mut next_id) = (0, 0);
            for (op, pick, value) in ops {
                let k = pick % live.len().max(1);
                match op {
                    0 => {
                        let parked = pool.parked();
                        let slot = pool.mint();
                        proptest::prop_assert!(slot.is_empty(), "a reminted slot starts life empty");
                        proptest::prop_assert_eq!(pool.parked(), parked.saturating_sub(1));
                        if parked == 0 {
                            created += 1;
                        }
                        next_id += 1;
                        live.push((slot, next_id, Vec::new()));
                    }
                    // Fill (push) or overwrite the head through handle `k`:
                    // when its buffer is shared, the handle detaches a copy.
                    1 | 2 if !live.is_empty() => {
                        let id = live[k].1;
                        if live.iter().filter(|(_, other, _)| *other == id).count() > 1 {
                            created += 1;
                            next_id += 1;
                            live[k].1 = next_id;
                        }
                        let (slot, _, model) = &mut live[k];
                        if op == 1 || model.is_empty() {
                            slot.push(value);
                            model.push(value);
                        } else {
                            slot[0] = value;
                            model[0] = value;
                        }
                    }
                    3 if !live.is_empty() => {
                        let (slot, id, model) = &live[k];
                        let shared = (slot.clone(), *id, model.clone());
                        live.push(shared);
                    }
                    4 if !live.is_empty() => {
                        live.swap_remove(k);
                    }
                    _ => {}
                }
                for (slot, _, model) in &live {
                    proptest::prop_assert_eq!(slot.as_slice(), model.as_slice(),
                        "a mutation through one handle never shows through another");
                }
            }
            drop(live);
            proptest::prop_assert_eq!(pool.parked(), created, "every buffer parks, once");
            let reminted: Vec<Slot<u32>> = (0..created).map(|_| pool.mint()).collect();
            proptest::prop_assert!(reminted.iter().all(|s| s.is_empty()), "no stale entries survive");
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
        sfs.push(Subframe { seq: 1, packet: Packet::new(header, Body::new()), corrupted: false });
        assert_eq!(sfs.len(), 1);
    }
}
