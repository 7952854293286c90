//! A cluster-wide lock acquired with one-sided atomics.
//!
//! Models an MCS-style queue lock whose word lives in one node's share of
//! global memory: acquisition is a remote atomic (one round trip); a
//! contended hand-off is the previous holder's one-way flag write. The
//! *coherence* fences of locking (SI on acquire / SD on release) are
//! deliberately **not** part of this type — HQDL's whole point is choosing
//! where those fences go (paper §4.2). The lock does answer the question
//! that choice hinges on: [`Tenure::must_self_invalidate`] says whether
//! anything another node published could have reached this node's cache
//! since its last tenure.

use carina::DsmError;
use parking_lot::{Condvar, Mutex};
use rma::{Endpoint, RetryExhausted, RetryPolicy, VerbClass};
use simnet::NodeId;
use std::sync::Arc;

/// Translate an exhausted retry budget into the DSM-level error, naming
/// the route (Vela builds it field-wise; the carina constructor is private
/// to the protocol engine).
pub(crate) fn lock_fault(e: RetryExhausted, node: u16, target: u16) -> DsmError {
    DsmError {
        class: e.class,
        attempts: e.attempts,
        last_error: e.last_error,
        node,
        target,
        span: rma::SpanId::NONE,
    }
}

struct LockState {
    locked: bool,
    /// Virtual time of the last release (what the next holder merges).
    last_release: u64,
    /// Node of the previous tenure. A same-node re-acquisition skips the
    /// hand-off hop, and it is half of the self-invalidation rule
    /// ([`Tenure::must_self_invalidate`]).
    last_holder: Option<u16>,
    /// Membership epoch at the last release, when the releaser passed one
    /// ([`DsmGlobalLock::release_tracked`]); `None` after a plain release
    /// or before the first, which forces the next holder to
    /// self-invalidate.
    released_epoch: Option<u64>,
}

/// What one acquisition of a [`DsmGlobalLock`] tells its holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenure {
    /// The previous holder was a different node (a *handover*: the release
    /// flag crossed the network to reach us).
    pub switched: bool,
    /// The holder must self-invalidate before touching data this lock
    /// protects: the lock arrived from another node, or the membership
    /// epoch moved since the last release. Otherwise every section since
    /// this node's last tenure ran on this node, and caches are per node:
    /// in a data-race-free program, data another node wrote is ordered
    /// before our reads either by this lock — then it switched nodes — or
    /// by some other synchronization whose acquire already
    /// self-invalidated this node's cache.
    pub must_self_invalidate: bool,
}

/// Statistics of a [`DsmGlobalLock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalLockStats {
    pub acquisitions: u64,
    /// Acquisitions where the lock came from a different node.
    pub node_switches: u64,
}

/// A global (cluster-wide) mutual-exclusion lock with virtual-time costs.
pub struct DsmGlobalLock {
    home: NodeId,
    retry: RetryPolicy,
    state: Mutex<(LockState, GlobalLockStats)>,
    cond: Condvar,
}

impl DsmGlobalLock {
    /// `home`: the node whose memory holds the lock word.
    pub fn new(home: NodeId) -> Arc<Self> {
        Self::with_retry(home, RetryPolicy::default())
    }

    /// [`new`](Self::new) with an explicit policy for reissuing the lock
    /// word's CAS and hand-off write when the fabric drops them. Locks
    /// built by higher layers inherit their DSM's configured policy.
    pub fn with_retry(home: NodeId, retry: RetryPolicy) -> Arc<Self> {
        Arc::new(DsmGlobalLock {
            home,
            retry,
            state: Mutex::new((
                LockState {
                    locked: false,
                    last_release: 0,
                    last_holder: None,
                    released_epoch: None,
                },
                GlobalLockStats::default(),
            )),
            cond: Condvar::new(),
        })
    }

    /// Acquire: one remote atomic on the lock word, plus waiting for the
    /// previous holder's release to propagate.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_acquire`] for the fallible flavor.
    pub fn acquire<E: Endpoint>(&self, t: &mut E) {
        self.acquire_tracked(t, 0);
    }

    /// Fallible flavor of [`Self::acquire`].
    pub fn try_acquire<E: Endpoint>(&self, t: &mut E) -> Result<(), DsmError> {
        self.try_acquire_tracked(t, 0).map(|_| ())
    }

    /// [`acquire`](Self::acquire), reporting the [`Tenure`]: whether the
    /// lock changed hands between nodes and whether the holder must
    /// self-invalidate. `epoch` is the caller's current membership epoch
    /// (`dsm.membership().epoch()`).
    pub fn acquire_tracked<E: Endpoint>(&self, t: &mut E, epoch: u64) -> Tenure {
        match self.try_acquire_tracked(t, epoch) {
            Ok(tenure) => tenure,
            Err(e) => panic!("unrecoverable DSM fault: {e}"),
        }
    }

    /// Fallible flavor of [`Self::acquire_tracked`]: an exhausted CAS
    /// budget surfaces *before* any queue state changes, so a failed
    /// acquisition leaves the lock exactly as it found it.
    pub fn try_acquire_tracked<E: Endpoint>(
        &self,
        t: &mut E,
        epoch: u64,
    ) -> Result<Tenure, DsmError> {
        // The CAS on the lock word costs a round trip regardless of
        // outcome; a dropped CAS is reissued after backing off locally.
        self.retry
            .run(VerbClass::LockAtomic, self.home.0 as u64, |a| {
                if a.step > 0 {
                    t.compute(a.step);
                }
                t.rdma_cas(self.home)
            })
            .map_err(|e| lock_fault(e, t.node().0, self.home.0))?;
        let mut st = self.state.lock();
        while st.0.locked {
            self.cond.wait(&mut st);
        }
        st.0.locked = true;
        st.1.acquisitions += 1;
        let me = t.node().0;
        let switched = st.0.last_holder != Some(me);
        let must_self_invalidate = switched || st.0.released_epoch != Some(epoch);
        let before = t.now();
        if switched {
            st.1.node_switches += 1;
            // Hand-off from another node: the release flag travelled one
            // network hop to reach us.
            t.merge(st.0.last_release + t.cost().network_latency);
        } else {
            t.merge(st.0.last_release);
        }
        st.0.last_holder = Some(me);
        drop(st);
        let jump = t.now() - before;
        if switched && jump > 0 {
            // Real-time shadow of the virtual wait (~0.3 ns per simulated
            // cycle, capped). Without this, waiting out another node's
            // tenure is instantaneous in wall-clock terms and delegation
            // queues never accumulate the way they do on real hardware —
            // queue *dynamics* must track the virtual timeline for HQDL
            // batching (and cohort pass behaviour) to be representative.
            let shadow = std::time::Duration::from_nanos((jump * 3 / 10).min(100_000));
            let start = std::time::Instant::now();
            while start.elapsed() < shadow {
                std::thread::yield_now();
            }
        }
        Ok(Tenure {
            switched,
            must_self_invalidate,
        })
    }

    /// Release: a posted write of the lock word (the successor's spin flag).
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_release`] for the fallible flavor.
    pub fn release<E: Endpoint>(&self, t: &mut E) {
        if let Err(e) = self.try_release(t) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// [`release`](Self::release) that records the releaser's membership
    /// epoch, so the node's next [`Tenure`] may skip its self-invalidation
    /// if nothing moved. The releaser must have self-downgraded first: it
    /// cannot know which node acquires next.
    pub fn release_tracked<E: Endpoint>(&self, t: &mut E, epoch: u64) {
        if let Err(e) = self.try_release_at(t, Some(epoch)) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// Fallible flavor of [`Self::release`]: if the hand-off write never
    /// lands, the lock stays held (the successor must not observe a release
    /// that did not reach the fabric).
    pub fn try_release<E: Endpoint>(&self, t: &mut E) -> Result<(), DsmError> {
        self.try_release_at(t, None)
    }

    fn try_release_at<E: Endpoint>(&self, t: &mut E, epoch: Option<u64>) -> Result<(), DsmError> {
        self.retry
            .run(VerbClass::LockAtomic, !(self.home.0 as u64), |a| {
                if a.step > 0 {
                    t.compute(a.step);
                }
                t.rdma_write(self.home, 8).map(|_| ())
            })
            .map_err(|e| lock_fault(e, t.node().0, self.home.0))?;
        let mut st = self.state.lock();
        assert!(st.0.locked, "releasing an unheld global lock");
        st.0.locked = false;
        st.0.last_release = t.now();
        st.0.released_epoch = epoch;
        self.cond.notify_one();
        Ok(())
    }

    pub fn stats(&self) -> GlobalLockStats {
        self.state.lock().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::testkit::{thread, tiny_net};
    use simnet::CostModel;

    #[test]
    fn mutual_exclusion_and_clock_monotonicity() {
        let net = tiny_net(4);
        let lock = DsmGlobalLock::new(NodeId(0));
        let shared = Arc::new(Mutex::new((0u64, 0u64))); // (counter, last_clock)
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let lock = lock.clone();
                let net = net.clone();
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let mut t = thread(&net, n as u16, 0);
                    for _ in 0..200 {
                        lock.acquire(&mut t);
                        {
                            let mut s = shared.lock();
                            s.0 += 1;
                            // Virtual time inside the lock is monotone
                            // across holders.
                            assert!(t.now() >= s.1);
                            s.1 = t.now();
                        }
                        t.compute(50);
                        lock.release(&mut t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.lock().0, 800);
        let st = lock.stats();
        assert_eq!(st.acquisitions, 800);
        assert!(st.node_switches >= 3);
    }

    #[test]
    fn acquisition_costs_a_round_trip() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(1));
        let mut t = thread(&net, 0, 0);
        lock.acquire(&mut t);
        let c = CostModel::paper_2011();
        assert!(t.now() >= 2 * c.network_latency);
        lock.release(&mut t);
    }

    #[test]
    fn tenure_requires_si_only_on_arrival_or_epoch_change() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(0));
        let (mut a, mut b) = (thread(&net, 0, 0), thread(&net, 1, 0));
        let tenure = |switched, must_self_invalidate| Tenure {
            switched,
            must_self_invalidate,
        };
        // The first holder knows nothing about the past.
        assert_eq!(lock.acquire_tracked(&mut a, 0), tenure(true, true));
        lock.release_tracked(&mut a, 0);
        // Same node, same epoch: nothing to invalidate.
        assert_eq!(lock.acquire_tracked(&mut a, 0), tenure(false, false));
        lock.release_tracked(&mut a, 0);
        // Same node, but the membership moved since the release.
        assert_eq!(lock.acquire_tracked(&mut a, 1), tenure(false, true));
        // A plain release promises nothing about the epoch.
        lock.release(&mut a);
        assert_eq!(lock.acquire_tracked(&mut a, 1), tenure(false, true));
        lock.release_tracked(&mut a, 1);
        // Arrival from another node always invalidates.
        assert_eq!(lock.acquire_tracked(&mut b, 1), tenure(true, true));
        lock.release_tracked(&mut b, 1);
        assert_eq!(lock.acquire_tracked(&mut a, 1), tenure(true, true));
        lock.release_tracked(&mut a, 1);
        assert_eq!(lock.stats().node_switches, 3);
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn double_release_is_a_bug() {
        let lock = DsmGlobalLock::new(NodeId(0));
        let mut t = thread(&tiny_net(1), 0, 0);
        lock.acquire(&mut t);
        lock.release(&mut t);
        lock.release(&mut t);
    }
}
