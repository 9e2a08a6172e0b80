//! Generation-tagged buffer pool for the zero-copy frame path.
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
//! Recycling is **generation-tagged**, mirroring the arrival slab: every
//! mint stamps the buffer with a fresh generation from the pool's counter.
//! The tag is how the property tests pin the invariant that matters — a
//! recycled buffer starts life empty (no stale body bytes, no stale
//! `corrupted` subframes), and two successive occupants of one buffer are
//! distinguishable even though they share an address.
//!
//! The pool is deliberately invisible to simulation results: which buffer a
//! mint returns affects addresses only, never values, so pooling cannot
//! perturb the bit-identical repro contract. A buffer is reclaimed by
//! whoever drops its frame last; `FramePool` is `Send + Sync` (parking is a
//! mutex push) although every frame of a run lives and dies on the one
//! thread that runs it.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::frame::Subframe;

/// Shared free lists + the generation counter behind a [`FramePool`] handle.
#[derive(Default)]
struct PoolInner {
    /// Parked payload buffers, each uniquely owned (strong count 1).
    bodies: Mutex<Vec<Arc<Vec<u8>>>>,
    /// Parked subframe vectors, each uniquely owned and empty.
    subframes: Mutex<Vec<Arc<Vec<Subframe>>>>,
    /// Monotonic mint counter; every minted buffer carries one value.
    generation: AtomicU64,
}

/// A cloneable handle to a recyclable frame-buffer pool.
///
/// Clones share the same free lists (`Arc` inside), so a MAC entity, the
/// runner, and every in-flight [`Body`] can all return buffers to the same
/// home. Dropping the last handle frees whatever is parked.
#[derive(Clone, Default)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl FramePool {
    /// A fresh pool with empty free lists.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Locks a free list, recovering from poisoning: the pool is an
    /// allocation cache, so a panic on another thread cannot leave it in a
    /// state worth propagating.
    fn lock<T>(list: &Mutex<Vec<T>>) -> std::sync::MutexGuard<'_, Vec<T>> {
        list.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stamps and returns the next generation.
    fn next_generation(&self) -> u64 {
        self.inner.generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Mints a payload buffer and fills it via `fill`, reusing a parked
    /// buffer (and its capacity) when one is available. The buffer `fill`
    /// sees is always empty.
    pub fn mint_body_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Body {
        let mut arc = Self::lock(&self.inner.bodies).pop().unwrap_or_default();
        let buf = Arc::get_mut(&mut arc).expect("parked body buffers are uniquely owned");
        buf.clear();
        fill(buf);
        Body { buf: Some(arc), home: Some(self.clone()), generation: self.next_generation() }
    }

    /// Mints a payload buffer holding a copy of `contents`.
    pub fn mint_body(&self, contents: &[u8]) -> Body {
        self.mint_body_with(|buf| buf.extend_from_slice(contents))
    }

    /// Mints an empty subframe vector, reusing a parked one (and its
    /// capacity) when available.
    pub fn mint_subframes(&self) -> SubframeVec {
        let arc = Self::lock(&self.inner.subframes).pop().unwrap_or_default();
        debug_assert!(arc.is_empty(), "parked subframe vectors are cleared before parking");
        SubframeVec { buf: Some(arc), home: Some(self.clone()) }
    }

    /// The number of generations minted so far (test/diagnostic surface).
    pub fn generations_minted(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Buffers currently parked, `(bodies, subframe vectors)` — the pool's
    /// steady-state working set (test/diagnostic surface).
    pub fn parked(&self) -> (usize, usize) {
        (Self::lock(&self.inner.bodies).len(), Self::lock(&self.inner.subframes).len())
    }

    /// Parks a payload buffer if the caller held the last reference.
    fn park_body(&self, mut arc: Arc<Vec<u8>>) {
        if let Some(buf) = Arc::get_mut(&mut arc) {
            buf.clear();
            Self::lock(&self.inner.bodies).push(arc);
        }
        // Otherwise another Body clone is still alive; its final drop parks.
    }

    /// Parks a subframe vector if the caller held the last reference.
    /// Clearing here drops the contained packets, releasing their bodies
    /// back to *their* pools before this vector is reused.
    fn park_subframes(&self, mut arc: Arc<Vec<Subframe>>) {
        if let Some(buf) = Arc::get_mut(&mut arc) {
            buf.clear();
            Self::lock(&self.inner.subframes).push(arc);
        }
    }
}

impl fmt::Debug for FramePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (bodies, subframes) = self.parked();
        f.debug_struct("FramePool")
            .field("parked_bodies", &bodies)
            .field("parked_subframes", &subframes)
            .field("generations_minted", &self.generations_minted())
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
pub struct Body {
    /// The shared bytes. `Some` until drop (the `Option` exists so `Drop`
    /// can move the `Arc` out for parking).
    buf: Option<Arc<Vec<u8>>>,
    /// The pool to park in, if pool-minted.
    home: Option<FramePool>,
    /// Mint generation (0 for unpooled bodies).
    generation: u64,
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

    /// The generation stamped at mint time (0 for unpooled bodies). Two
    /// bodies minted from the same pool never share a generation, even when
    /// they recycled the same buffer.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this body came from a pool (and will be parked on last drop).
    pub fn is_pooled(&self) -> bool {
        self.home.is_some()
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body { buf: Some(Arc::new(bytes)), home: None, generation: 0 }
    }
}

impl Clone for Body {
    fn clone(&self) -> Self {
        Body { buf: self.buf.clone(), home: self.home.clone(), generation: self.generation }
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        if let (Some(arc), Some(home)) = (self.buf.take(), self.home.take()) {
            home.park_body(arc);
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
/// [`Arc::make_mut`] — copies it, which is exactly the copy-on-write the
/// corruption seam relies on. An unshared vector mutates in place, so
/// build-then-transmit never pays the copy.
pub struct SubframeVec {
    /// The shared storage. `Some` until drop (see [`Body::buf`]).
    buf: Option<Arc<Vec<Subframe>>>,
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
        Arc::make_mut(self.buf.as_mut().expect("live SubframeVec has storage"))
    }
}

impl Default for SubframeVec {
    fn default() -> Self {
        SubframeVec::new()
    }
}

impl From<Vec<Subframe>> for SubframeVec {
    fn from(subframes: Vec<Subframe>) -> Self {
        SubframeVec { buf: Some(Arc::new(subframes)), home: None }
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
        if let (Some(arc), Some(home)) = (self.buf.take(), self.home.take()) {
            home.park_subframes(arc);
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

/// Shared free list + generation counter behind a [`SlotPool`] handle.
struct SlotPoolInner<T> {
    /// Parked slot buffers, each cleared before parking.
    slots: Mutex<Vec<Vec<T>>>,
    /// Monotonic mint counter; every minted slot carries one value.
    generation: AtomicU64,
}

/// A recyclable pool of uniquely-owned scratch buffers ("slots") — the
/// [`FramePool`] sibling for the MAC's queue and reorder entries.
///
/// Where [`FramePool`] recycles *shared* frame state (reference-counted
/// bodies and subframe vectors), a `SlotPool` recycles plain `Vec<T>`
/// buffers that one owner fills, drains, and drops: the batch a saturated
/// interface queue hands to the aggregator, the contiguous run a reorder
/// buffer releases. Minting pops a parked buffer (or allocates the first
/// time), dropping a [`Slot`] clears it and parks it back, and every mint
/// stamps a fresh generation so the property tests can pin that no stale
/// entry ever leaks across reuse.
///
/// Like its sibling, the pool is invisible to simulation results: which
/// buffer a mint returns affects addresses only, never values.
pub struct SlotPool<T> {
    inner: Arc<SlotPoolInner<T>>,
}

impl<T> SlotPool<T> {
    /// A fresh pool with an empty free list.
    pub fn new() -> Self {
        SlotPool {
            inner: Arc::new(SlotPoolInner {
                slots: Mutex::new(Vec::new()),
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// Mints an empty slot, reusing a parked buffer (and its capacity)
    /// when one is available.
    pub fn mint(&self) -> Slot<T> {
        let buf = FramePool::lock(&self.inner.slots).pop().unwrap_or_default();
        debug_assert!(buf.is_empty(), "parked slots are cleared before parking");
        let generation = self.inner.generation.fetch_add(1, Ordering::Relaxed);
        Slot { buf: Some(buf), home: Some(self.clone()), generation }
    }

    /// The number of generations minted so far (test/diagnostic surface).
    pub fn generations_minted(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Buffers currently parked (test/diagnostic surface).
    pub fn parked(&self) -> usize {
        FramePool::lock(&self.inner.slots).len()
    }

    /// Parks a drained buffer for reuse.
    fn park(&self, mut buf: Vec<T>) {
        buf.clear();
        FramePool::lock(&self.inner.slots).push(buf);
    }
}

impl<T> Default for SlotPool<T> {
    fn default() -> Self {
        SlotPool::new()
    }
}

impl<T> Clone for SlotPool<T> {
    fn clone(&self) -> Self {
        SlotPool { inner: Arc::clone(&self.inner) }
    }
}

impl<T> fmt::Debug for SlotPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotPool")
            .field("parked", &self.parked())
            .field("generations_minted", &self.generations_minted())
            .finish()
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
    /// Mint generation (0 for detached slots).
    generation: u64,
}

impl<T> Slot<T> {
    /// An empty slot with no home pool (tests, unpooled callers): behaves
    /// like a plain `Vec` and is simply dropped.
    pub fn detached() -> Slot<T> {
        Slot { buf: Some(Vec::new()), home: None, generation: 0 }
    }

    /// The generation stamped at mint time (0 for detached slots). Two
    /// slots minted from the same pool never share a generation, even when
    /// they recycled the same buffer.
    pub fn generation(&self) -> u64 {
        self.generation
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
        let pool = FramePool::new();
        let first = pool.mint_body(b"stale contents");
        let first_gen = first.generation();
        drop(first);
        assert_eq!(pool.parked().0, 1, "last drop parks the buffer");
        let second = pool.mint_body_with(|_| {});
        assert_ne!(second.generation(), first_gen, "recycling mints a fresh generation");
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
        /// holds exactly its own contents under a never-before-seen
        /// generation, and every minted subframe vector starts empty — no
        /// stale bytes, no stale `corrupted` flags — even though the
        /// underlying allocations are reused.
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
            let mut seen_generations = std::collections::BTreeSet::new();
            for (op, slot, payload) in ops {
                match op {
                    // Mint a body: its contents and generation are its own.
                    0 => {
                        let body = pool.mint_body(&payload);
                        proptest::prop_assert_eq!(
                            body.as_slice(), payload.as_slice(),
                            "a minted body holds exactly what it was filled with"
                        );
                        proptest::prop_assert!(
                            seen_generations.insert(body.generation()),
                            "generation tags are never reused"
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
            // come back empty and freshly tagged regardless of its history.
            drop((live_bodies, live_vecs));
            let (parked_bodies, parked_vecs) = pool.parked();
            for _ in 0..parked_bodies {
                let b = pool.mint_body_with(|_| {});
                proptest::prop_assert!(b.as_slice().is_empty(), "no stale bytes survive recycling");
                proptest::prop_assert!(seen_generations.insert(b.generation()));
            }
            for _ in 0..parked_vecs {
                proptest::prop_assert!(
                    pool.mint_subframes().is_empty(),
                    "no stale subframes (or corrupted flags) survive recycling"
                );
            }
        }
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
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.as_slice(), &[7]);
    }

    proptest::proptest! {
        /// Mirror of the `FramePool` pin above, for [`SlotPool`]: whatever
        /// the mint/fill/drop interleaving, a reminted slot is always empty
        /// and carries a never-before-seen generation — no stale entries
        /// leak across reuse even though the buffers themselves recycle.
        #[test]
        fn prop_slot_remint_is_empty_with_fresh_generation(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..8, 0u32..1000),
                1..64,
            ),
        ) {
            let pool: SlotPool<u32> = SlotPool::new();
            let mut live: Vec<Slot<u32>> = Vec::new();
            let mut seen_generations = std::collections::BTreeSet::new();
            for (mint, slot_idx, fill) in ops {
                if mint || live.is_empty() {
                    let mut s = pool.mint();
                    proptest::prop_assert!(s.is_empty(), "a reminted slot starts life empty");
                    proptest::prop_assert!(
                        seen_generations.insert(s.generation()),
                        "generation tags are never reused"
                    );
                    // Dirty the buffer — the stale state a later occupant
                    // must not see.
                    s.extend(std::iter::repeat_n(fill, slot_idx + 1));
                    live.push(s);
                } else {
                    live.swap_remove(slot_idx % live.len());
                }
            }
            // Drain everything, then remint every parked buffer.
            drop(live);
            for _ in 0..pool.parked() {
                let s = pool.mint();
                proptest::prop_assert!(s.is_empty(), "no stale entries survive recycling");
                proptest::prop_assert!(seen_generations.insert(s.generation()));
            }
        }
    }

    #[test]
    fn unpooled_fallbacks_work_without_a_pool() {
        let body = Body::from(b"plain".to_vec());
        assert_eq!(body.generation(), 0);
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
