//! Manager roles (lock homes, the barrier manager, view homes) and the
//! service handler that runs them.
//!
//! Every manager lives on its home node and executes inside that node's
//! service handler — the simulation analogue of TreadMarks' SIGIO request
//! handlers. All handlers are idempotent: the reliable transport may deliver
//! duplicate requests after a retransmission.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use vopp_page::{Diff, PageId, VTime};
use vopp_sim::sync::Mutex;
use vopp_sim::{Handler, ProcId, SvcCtx};
use vopp_simnet::reply;

use crate::msg::{AccessMode, Req, Resp, ViewRecord};
use crate::node::{NodeState, Protocol};

/// A queued lock request.
#[derive(Debug, Clone)]
pub struct LockWaiter {
    /// Requesting processor.
    pub proc: ProcId,
    /// Reply tag of the pending rpc.
    pub tag: u64,
    /// The requester's logged vector time (sizes the grant delta).
    pub vt: VTime,
}

/// State of one lock at its home.
#[derive(Debug, Clone, Default)]
pub struct LockHome {
    /// Current holder, if any.
    pub holder: Option<ProcId>,
    /// FIFO of waiting requests.
    pub queue: VecDeque<LockWaiter>,
}

/// State of the (centralized) barrier manager.
#[derive(Debug, Clone, Default)]
pub struct BarrierHome {
    /// Completed episodes.
    pub episodes_done: u32,
    /// Arrivals of the current episode: proc -> (reply tag, vector time).
    pub arrived: BTreeMap<ProcId, (u64, VTime)>,
}

/// A queued view request.
#[derive(Debug, Clone)]
pub struct ViewWaiter {
    /// Requesting processor.
    pub proc: ProcId,
    /// Reply tag of the pending rpc.
    pub tag: u64,
    /// Read or write access.
    pub mode: AccessMode,
    /// Latest view version already applied at the requester.
    pub have: u32,
}

/// State of one view at its home.
#[derive(Debug, Clone, Default)]
pub struct ViewHome {
    /// Current exclusive holder.
    pub writer: Option<ProcId>,
    /// Current read holders.
    pub readers: BTreeSet<ProcId>,
    /// FIFO of waiting requests.
    pub queue: VecDeque<ViewWaiter>,
    /// Number of write releases so far (the view's version).
    pub version: u32,
    /// Release history (`VC_d` grants send the slice a requester missed).
    /// Records are immutable once appended and `Arc`-shared with grants.
    pub records: Vec<Arc<ViewRecord>>,
    /// `VC_sd`: per page, the version-tagged diffs of each release, shared
    /// with the releaser's diff store. At grant time the diffs a requester
    /// is missing are merged into a single integrated diff per page (the
    /// CCGrid'05 "single diff" piggy-backed on the grant).
    pub integrated: BTreeMap<PageId, Vec<(u32, Arc<Diff>)>>,
    /// Last version assigned to each releaser (idempotent release acks).
    pub last_write_release: BTreeMap<ProcId, u32>,
}

/// Build the service handler for one node.
pub fn make_handler(node: Arc<Mutex<NodeState>>) -> Handler {
    Box::new(move |svc, pkt| {
        let tag = pkt.tag;
        let src = pkt.src;
        let req = pkt.expect::<Req>();
        let mut n = node.lock();
        handle(&mut n, svc, src, tag, req);
    })
}

fn handle(n: &mut NodeState, svc: &mut SvcCtx<'_>, src: ProcId, tag: u64, req: Req) {
    match req {
        Req::LockAcquire { lock, vt } => {
            let mut h = n.locks.remove(&lock).unwrap_or_default();
            if h.holder == Some(src) {
                // Duplicate of a request we already granted.
                send_lock_grant(n, svc, src, tag, &vt);
            } else if h.holder.is_none() && h.queue.is_empty() {
                h.holder = Some(src);
                send_lock_grant(n, svc, src, tag, &vt);
            } else if let Some(w) = h.queue.iter_mut().find(|w| w.proc == src) {
                w.tag = tag;
                w.vt = vt;
            } else {
                h.queue.push_back(LockWaiter { proc: src, tag, vt });
            }
            n.locks.insert(lock, h);
        }

        Req::LockRelease { lock, records } => {
            if let Some(maxl) = records.iter().map(|r| r.lamport).max() {
                n.lamport_sync(maxl);
            }
            n.merge_logged(&records);
            let mut h = n.locks.remove(&lock).unwrap_or_default();
            if h.holder == Some(src) {
                h.holder = None;
                if let Some(w) = h.queue.pop_front() {
                    h.holder = Some(w.proc);
                    send_lock_grant(n, svc, w.proc, w.tag, &w.vt);
                }
            }
            // Duplicate releases (holder already moved on) are just acked.
            n.locks.insert(lock, h);
            let ack = Resp::Ack;
            reply(svc, src, ack.wire_bytes(), tag, Arc::new(ack));
        }

        Req::BarrierArrive {
            episode,
            records,
            vt,
        } => {
            if let Some(maxl) = records.iter().map(|r| r.lamport).max() {
                n.lamport_sync(maxl);
            }
            n.merge_logged(&records);
            if episode < n.barrier.episodes_done {
                // The release for this episode was lost: regenerate it.
                send_barrier_release(n, svc, src, tag, &vt);
                return;
            }
            debug_assert_eq!(episode, n.barrier.episodes_done, "barrier episode skew");
            n.barrier.arrived.insert(src, (tag, vt));
            if n.barrier.arrived.len() == n.n {
                let arrived = std::mem::take(&mut n.barrier.arrived);
                n.barrier.episodes_done += 1;
                for (proc, (ptag, pvt)) in arrived {
                    send_barrier_release(n, svc, proc, ptag, &pvt);
                }
            }
        }

        Req::ViewAcquire { view, mode, have } => {
            let mut h = n.views.remove(&view).unwrap_or_default();
            let already = match mode {
                AccessMode::Write => h.writer == Some(src),
                AccessMode::Read => h.readers.contains(&src),
            };
            let can = match mode {
                AccessMode::Write => {
                    h.writer.is_none() && h.readers.is_empty() && h.queue.is_empty()
                }
                AccessMode::Read => h.writer.is_none() && h.queue.is_empty(),
            };
            if already {
                send_view_grant(n, &h, svc, view, src, tag, have);
            } else if can {
                admit(&mut h, src, mode);
                send_view_grant(n, &h, svc, view, src, tag, have);
            } else if let Some(w) = h.queue.iter_mut().find(|w| w.proc == src) {
                w.tag = tag;
                w.have = have;
                w.mode = mode;
            } else {
                h.queue.push_back(ViewWaiter {
                    proc: src,
                    tag,
                    mode,
                    have,
                });
            }
            n.views.insert(view, h);
        }

        Req::ViewRelease {
            view,
            mode: AccessMode::Write,
            interval,
            lamport,
            pages,
            diffs,
        } => {
            n.lamport_sync(lamport);
            let mut h = n.views.remove(&view).unwrap_or_default();
            if h.writer == Some(src) {
                h.writer = None;
                let version = if pages.is_empty() {
                    h.version
                } else {
                    h.version += 1;
                    let v = h.version;
                    h.records.push(Arc::new(ViewRecord {
                        version: v,
                        id: interval.expect("write release with pages but no interval id"),
                        lamport,
                        pages,
                    }));
                    match n.protocol {
                        Protocol::VcSd => {
                            for (p, d) in diffs {
                                h.integrated.entry(p).or_default().push((v, d));
                            }
                        }
                        Protocol::VcRdma => {
                            // The diffs travelled out-of-band: a one-sided
                            // write deposited them in this node's preposted
                            // buffer before the (slim) release request, and
                            // link FIFO guarantees they have landed by now.
                            // Retransmitted duplicates take the else branch
                            // below and never reach this take.
                            let data = svc
                                .take_one_sided(src, crate::msg::rdma_release_tag(view))
                                .expect("VC_rdma release data must precede the release request");
                            for (p, d) in data.expect::<Vec<(PageId, Arc<Diff>)>>() {
                                h.integrated.entry(p).or_default().push((v, d));
                            }
                        }
                        _ => {}
                    }
                    v
                };
                h.last_write_release.insert(src, version);
                let ack = Resp::ReleaseAck { version };
                reply(svc, src, ack.wire_bytes(), tag, Arc::new(ack));
                grant_next(n, &mut h, svc, view);
            } else {
                // Duplicate release after the original was processed.
                let version = h.last_write_release.get(&src).copied().unwrap_or(h.version);
                let ack = Resp::ReleaseAck { version };
                reply(svc, src, ack.wire_bytes(), tag, Arc::new(ack));
            }
            n.views.insert(view, h);
        }

        Req::ViewRelease {
            view,
            mode: AccessMode::Read,
            ..
        } => {
            let mut h = n.views.remove(&view).unwrap_or_default();
            h.readers.remove(&src);
            let ack = Resp::Ack;
            reply(svc, src, ack.wire_bytes(), tag, Arc::new(ack));
            if h.readers.is_empty() && h.writer.is_none() {
                grant_next(n, &mut h, svc, view);
            }
            n.views.insert(view, h);
        }

        Req::DiffReq { page, intervals } => {
            let items = n.serve_diffs(page, &intervals);
            let resp = Resp::DiffResp { items };
            reply(svc, src, resp.wire_bytes(), tag, Arc::new(resp));
        }

        Req::HomeFlush { items } => {
            // Apply eagerly so this home's copies stay current. If the
            // application thread has a live twin on a page, update the twin
            // too, so the flushed words are not re-attributed to this node's
            // next diff (concurrent writers are word-disjoint in DRF
            // programs).
            debug_assert_eq!(n.protocol, Protocol::Hlrc);
            for (page, diff) in items {
                debug_assert_eq!(n.page_home(page), n.me, "flush sent to wrong home");
                n.mem.apply_diff_with_twin(page, diff.as_ref());
                n.stats.diffs_applied += 1;
            }
            let ack = Resp::Ack;
            reply(svc, src, ack.wire_bytes(), tag, Arc::new(ack));
        }

        Req::PageReq { page } => {
            // Serve the full current content if this node still holds a
            // valid copy; otherwise the requester falls back to diffs.
            // (For view pages the copy is provably valid while the
            // requester holds the view; for LRC single-writer pages an
            // invalidation race is possible in principle.)
            let content = if n.mem.state(page) == vopp_page::PageState::Invalid {
                None
            } else {
                Some(n.mem.clone_page(page))
            };
            let resp = Resp::PageResp { content };
            reply(svc, src, resp.wire_bytes(), tag, Arc::new(resp));
        }
    }
}

fn admit(h: &mut ViewHome, proc: ProcId, mode: AccessMode) {
    match mode {
        AccessMode::Write => h.writer = Some(proc),
        AccessMode::Read => {
            h.readers.insert(proc);
        }
    }
}

/// Admit as many queued requests as compatibility allows: one writer, or a
/// maximal batch of consecutive readers.
fn grant_next(n: &NodeState, h: &mut ViewHome, svc: &mut SvcCtx<'_>, view: crate::layout::ViewId) {
    while let Some(front) = h.queue.front() {
        let ok = match front.mode {
            AccessMode::Write => h.writer.is_none() && h.readers.is_empty(),
            AccessMode::Read => h.writer.is_none(),
        };
        if !ok {
            break;
        }
        let w = h.queue.pop_front().unwrap();
        admit(h, w.proc, w.mode);
        send_view_grant(n, h, svc, view, w.proc, w.tag, w.have);
        if w.mode == AccessMode::Write {
            break;
        }
    }
}

fn send_lock_grant(n: &NodeState, svc: &mut SvcCtx<'_>, dst: ProcId, tag: u64, req_vt: &VTime) {
    debug_assert!(
        n.protocol.is_lrc_family(),
        "locks are a traditional-API feature"
    );
    let records = n.delta_since(req_vt);
    let resp = Resp::LockGrant {
        records,
        vt: n.logged_vt.clone(),
        lamport: n.lamport,
    };
    reply(svc, dst, resp.wire_bytes(), tag, Arc::new(resp));
}

fn send_barrier_release(
    n: &NodeState,
    svc: &mut SvcCtx<'_>,
    dst: ProcId,
    tag: u64,
    req_vt: &VTime,
) {
    let resp = if n.protocol.is_vc() {
        // VC barriers synchronize only: no consistency payload (paper §3.2).
        Resp::BarrierRelease {
            records: Vec::new(),
            vt: VTime::zero(0),
            lamport: n.lamport,
        }
    } else {
        Resp::BarrierRelease {
            records: n.delta_since(req_vt),
            vt: n.logged_vt.clone(),
            lamport: n.lamport,
        }
    };
    reply(svc, dst, resp.wire_bytes(), tag, Arc::new(resp));
}

fn send_view_grant(
    n: &NodeState,
    h: &ViewHome,
    svc: &mut SvcCtx<'_>,
    view: crate::layout::ViewId,
    dst: ProcId,
    tag: u64,
    have: u32,
) {
    // VC_rdma moves the integrated diffs by a one-sided write into the
    // requester's preposted buffer, issued ahead of the control reply so
    // link FIFO lands the data first. The grant reply itself stays slim.
    let mut one_sided: Vec<(PageId, Arc<Diff>)> = Vec::new();
    let (records, diffs) = match n.protocol {
        // ScC scoped grants look exactly like VC_d view grants: release
        // records newer than the requester's version, diffs on fault.
        // A requester's own releases are elided — it applied them locally —
        // except when it asks from version 0: in steady state no own
        // records predate a node's first acquire, so `have == 0` with own
        // history means a crashed node rebuilding from the home, and it
        // needs its own releases back (their diffs still sit in its durable
        // diff store).
        Protocol::VcD | Protocol::ScC => (
            h.records
                .iter()
                .filter(|r| r.version > have && (have == 0 || r.id.owner != dst))
                .cloned()
                .collect(),
            Vec::new(),
        ),
        Protocol::VcSd | Protocol::VcRdma => {
            let integrated: Vec<(PageId, Arc<Diff>)> = h
                .integrated
                .iter()
                .filter(|(_, vs)| vs.last().is_some_and(|(v, _)| *v > have))
                .map(|(p, vs)| {
                    // Diff integration: merge every release the requester
                    // missed into one diff, newest last (last writer wins).
                    // A single missed release is shared as-is — the common
                    // case pays no copy at all.
                    let mut missed = vs.iter().filter(|(v, _)| *v > have).map(|(_, d)| d);
                    let first = missed.next().expect("filter guarantees a missed release");
                    match missed.next() {
                        None => (*p, Arc::clone(first)),
                        Some(second) => {
                            let mut merged = first.as_ref().clone();
                            merged.merge_from(second);
                            for d in missed {
                                merged.merge_from(d);
                            }
                            (*p, Arc::new(merged))
                        }
                    }
                })
                .collect();
            if n.protocol == Protocol::VcRdma {
                one_sided = integrated;
                (Vec::new(), Vec::new())
            } else {
                (Vec::new(), integrated)
            }
        }
        Protocol::LrcD | Protocol::Hlrc => {
            unreachable!("views/scopes are not a homeless/home-based LRC feature")
        }
    };
    let mut data_bytes = 0u64;
    if !one_sided.is_empty() {
        let wire = crate::msg::one_sided_diffs_wire_bytes(&one_sided);
        data_bytes = wire as u64;
        svc.send(
            dst,
            wire,
            vopp_sim::DeliveryClass::OneSided,
            crate::msg::rdma_grant_tag(view),
            Arc::new(one_sided),
        );
    }
    let resp = Resp::ViewGrant {
        records,
        diffs,
        version: h.version,
        lamport: n.lamport,
    };
    let bytes = resp.wire_bytes();
    svc.trace(vopp_sim::EventKind::ViewGrantSent {
        view: view as u64,
        to: dst,
        version: h.version as u64,
        bytes: bytes as u64 + data_bytes,
    });
    reply(svc, dst, bytes, tag, Arc::new(resp));
}
