//! The kernel-facing network abstraction.
//!
//! The kernel is network-agnostic: every send is routed through a [`NetModel`]
//! that decides *when* (and whether) the packet arrives. `vopp-simnet`
//! provides the switched-Ethernet model used by the DSM experiments; the
//! [`PerfectNet`] here is a fixed-latency, lossless model for unit tests.

use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Inputs the kernel hands to the network model for one datagram.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Time the sender issued the send.
    pub now: SimTime,
    /// Sending process.
    pub src: ProcId,
    /// Destination process.
    pub dst: ProcId,
    /// Bytes on the wire, including headers.
    pub wire_bytes: usize,
    /// Total wire bytes of the packets already queued for delivery at `dst`
    /// (scheduled but not yet handed over) — the receive-buffer occupancy a
    /// bursting sender overflows.
    pub pending_bytes_at_dst: usize,
    /// The datagram is a one-sided verb carried by reliable transport
    /// (RDMA RC): the model must not apply its loss machinery (hardware
    /// retransmission is below the timescale modelled here), though the
    /// datagram still occupies link time and counts in traffic statistics.
    pub reliable: bool,
}

/// Decides delivery time and loss for each datagram.
///
/// Implementations must be deterministic given the same sequence of calls
/// (use an internally seeded RNG for loss decisions).
pub trait NetModel: Send {
    /// Return the arrival time of the packet, or `None` if it is dropped.
    fn route(&mut self, req: RouteRequest) -> Option<SimTime>;

    /// Total number of datagrams accepted onto the wire so far.
    fn sent_count(&self) -> u64 {
        0
    }

    /// Total wire bytes accepted so far.
    fn sent_bytes(&self) -> u64 {
        0
    }

    /// Datagrams dropped so far.
    fn dropped_count(&self) -> u64 {
        0
    }
}

/// Lossless constant-latency network; useful for tests and as a null model.
#[derive(Debug, Clone)]
pub struct PerfectNet {
    latency: SimDuration,
    sent: u64,
    bytes: u64,
}

impl PerfectNet {
    /// A perfect network with the given one-way latency.
    pub fn new(latency: SimDuration) -> PerfectNet {
        PerfectNet {
            latency,
            sent: 0,
            bytes: 0,
        }
    }
}

impl Default for PerfectNet {
    fn default() -> Self {
        PerfectNet::new(SimDuration::from_micros(10))
    }
}

impl NetModel for PerfectNet {
    fn route(&mut self, req: RouteRequest) -> Option<SimTime> {
        self.sent += 1;
        self.bytes += req.wire_bytes as u64;
        Some(req.now + self.latency)
    }

    fn sent_count(&self) -> u64 {
        self.sent
    }

    fn sent_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_net_adds_latency_and_counts() {
        let mut n = PerfectNet::new(SimDuration::from_micros(50));
        let t = n
            .route(RouteRequest {
                now: SimTime(1_000),
                src: 0,
                dst: 1,
                wire_bytes: 123,
                pending_bytes_at_dst: 0,
                reliable: false,
            })
            .unwrap();
        assert_eq!(t, SimTime(51_000));
        assert_eq!(n.sent_count(), 1);
        assert_eq!(n.sent_bytes(), 123);
        assert_eq!(n.dropped_count(), 0);
    }
}
