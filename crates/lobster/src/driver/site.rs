//! The driver's shared transfer points. Each squid proxy and the WAN
//! federation is a [`Site`]: its link, the pending wake for the link's
//! next completion, and who each of its flows serves. `simnet::link`
//! asks its caller to re-time after every mutation; a site does that
//! inside each method that mutates its link, so no handler can leave a
//! wake behind its link.

use super::Ev;
use cvmfssim::squid::Squid;
use gridstore::xrootd::Federation;
use simkit::prelude::*;
use simnet::link::FlowId;
use std::collections::BTreeMap;
use wqueue::task::TaskId;

/// Who a flow serves: one task's own transfer, or a worker's shared
/// alien-cache fill that its cold tasks wait on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(super) enum Owner {
    Task(TaskId),
    Fill(u64),
}

/// The link operations a site drives itself.
pub(super) trait Link {
    fn next_completion(&mut self) -> Option<(SimTime, FlowId)>;
    fn completions_into(&mut self, now: SimTime, out: &mut Vec<FlowId>);
    fn abort(&mut self, now: SimTime, flow: FlowId) -> Option<u64>;
}

/// `Squid` and `Federation` provide the link operations as inherent
/// methods of the same names.
macro_rules! link_by_inherent_methods {
    ($($ty:ident),*) => {$(
        impl Link for $ty {
            fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
                $ty::next_completion(self)
            }
            fn completions_into(&mut self, now: SimTime, out: &mut Vec<FlowId>) {
                $ty::completions_into(self, now, out)
            }
            fn abort(&mut self, now: SimTime, flow: FlowId) -> Option<u64> {
                $ty::abort(self, now, flow)
            }
        }
    )*};
}

link_by_inherent_methods!(Squid, Federation);

/// One shared transfer point.
pub(super) struct Site<L> {
    link: L,
    /// The pending wake: its instant and event.
    wake: Option<(SimTime, EventId)>,
    /// The event that wakes the site.
    wake_ev: Ev,
    owners: BTreeMap<FlowId, Owner>,
    /// Reused drain buffer: a wake fires per predicted completion, so
    /// draining stays allocation-free.
    done: Vec<FlowId>,
}

impl<L: Link> Site<L> {
    /// A site over `link`, woken by `wake_ev`.
    pub(super) fn new(link: L, wake_ev: Ev) -> Self {
        Site {
            link,
            wake: None,
            wake_ev,
            owners: BTreeMap::new(),
            done: Vec::new(),
        }
    }

    /// The link, for reads that change nothing.
    pub(super) fn link(&self) -> &L {
        &self.link
    }

    /// Move the wake to the link's next completion.
    fn retime(&mut self, ctx: &mut Ctx<Ev>) {
        if let Some((_, ev)) = self.wake.take() {
            ctx.cancel(ev);
        }
        if let Some((when, _)) = self.link.next_completion() {
            self.wake = Some((when, ctx.schedule_at(when, self.wake_ev.clone())));
        }
    }

    /// Admit a flow for `owner` through `open`; a flow that opens
    /// re-times the wake.
    pub(super) fn admit<E>(
        &mut self,
        owner: Owner,
        ctx: &mut Ctx<Ev>,
        open: impl FnOnce(&mut L) -> Result<FlowId, E>,
    ) -> Result<FlowId, E> {
        let flow = open(&mut self.link)?;
        self.owners.insert(flow, owner);
        self.retime(ctx);
        Ok(flow)
    }

    /// Change the link's capacity through `change` (a fault or an outage
    /// transition), which reports whether anything changed.
    pub(super) fn update(&mut self, ctx: &mut Ctx<Ev>, change: impl FnOnce(&mut L) -> bool) {
        if change(&mut self.link) {
            self.retime(ctx);
        }
    }

    /// Abort `flow`; the flows left speed up.
    pub(super) fn abort(&mut self, flow: FlowId, ctx: &mut Ctx<Ev>) {
        self.link.abort(ctx.now(), flow);
        self.owners.remove(&flow);
        self.retime(ctx);
    }

    /// The wake fired: fill `out` with the flows done by now and their
    /// owners, in completion order.
    pub(super) fn complete(&mut self, out: &mut Vec<(FlowId, Owner)>, ctx: &mut Ctx<Ev>) {
        self.wake = None;
        out.clear();
        self.link.completions_into(ctx.now(), &mut self.done);
        for flow in &self.done {
            if let Some(owner) = self.owners.remove(flow) {
                out.push((*flow, owner));
            }
        }
        self.retime(ctx);
    }
}

#[cfg(test)]
impl<L: Link> Site<L> {
    /// The pending wake's instant and the link's next completion, which
    /// agree between events.
    pub(super) fn wake_and_due(&mut self) -> (Option<SimTime>, Option<SimTime>) {
        let due = self.link.next_completion().map(|(at, _)| at);
        (self.wake.map(|(at, _)| at), due)
    }
}
