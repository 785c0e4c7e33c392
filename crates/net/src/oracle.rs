//! The one-cell reference runner the engine is tested against.
//!
//! A single-receiver plan once had a stepping loop of its own: one
//! [`DomainSim`] popped from event slot to event slot with no
//! cross-domain extras. Every plan now runs through
//! [`crate::topology::CitySim`]'s lockstep loop; this loop stays, for
//! tests only, as the reference that one must match bit for bit.

use crate::engine::{ArrivalQueues, DomainSim, NetRun, NetworkConfig, SlotExtras};
use crate::link::{BerTable, PacketModel};
use crate::topology::Deployment;

/// Runs `cfg` as one cell over `table`: the sites of the one-domain plan
/// `Deployment::one_cell(cfg)` places, one domain stepped
/// `peek → gather → resolve` through every slot that holds an event,
/// with no capture.
pub(crate) fn run_cell(cfg: &NetworkConfig, table: &BerTable) -> NetRun {
    let plan = Deployment::one_cell(cfg.clone())
        .build()
        .expect("a valid one-cell plan");
    let dom = &plan.domains()[0];
    let mut d = DomainSim::new(
        cfg.clone(),
        table,
        PacketModel::for_frame(cfg.packet_bits),
        &dom.sites,
        dom.n_channels,
        ArrivalQueues::shared(&cfg.traffic),
    );
    while let Some(slot) = d.peek_slot() {
        d.gather(slot);
        d.resolve(slot, &SlotExtras::default());
    }
    d.finish()
}
