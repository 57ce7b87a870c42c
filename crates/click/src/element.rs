//! The element abstraction: Click's unit of packet processing.

use crate::error::ClickError;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::time::SharedClock;
use endbox_netsim::Packet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Shared store of TLS session keys, fed by the client's patched TLS
/// library via the management interface (§III-D) and consumed by the
/// `TLSDecrypt` element inside the enclave.
#[derive(Debug, Clone, Default)]
pub struct SessionKeyStore {
    keys: Arc<Mutex<HashMap<FlowId, [u8; 16]>>>,
}

/// A bidirectional flow identifier (normalised so both directions map to
/// the same entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    a: (Ipv4Addr, u16),
    b: (Ipv4Addr, u16),
}

impl FlowId {
    /// Creates a normalised flow id.
    pub fn new(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        let x = (src, sport);
        let y = (dst, dport);
        if x <= y {
            FlowId { a: x, b: y }
        } else {
            FlowId { a: y, b: x }
        }
    }
}

impl SessionKeyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a session key for a flow (called by the TLS shim).
    pub fn register(&self, flow: FlowId, key: [u8; 16]) {
        self.keys.lock().insert(flow, key);
    }

    /// Looks up the key for a flow.
    pub fn lookup(&self, flow: &FlowId) -> Option<[u8; 16]> {
        self.keys.lock().get(flow).copied()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.keys.lock().len()
    }

    /// True if no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.lock().is_empty()
    }
}

/// Environment shared by all elements of a router instance.
#[derive(Debug, Clone)]
pub struct ElementEnv {
    /// Cycle-cost model in force.
    pub cost: CostModel,
    /// Meter elements charge their processing costs to.
    pub meter: CycleMeter,
    /// Simulation clock (rate limiters).
    pub clock: SharedClock,
    /// True when this router runs inside an SGX enclave (EndBox client);
    /// affects which time source splitters use.
    pub in_enclave: bool,
    /// True when the enclave runs in hardware mode: memory-intensive
    /// elements charge the EPC amplification factor.
    pub hardware_mode: bool,
    /// True for vanilla (server-side) Click that owns its own devices:
    /// `FromDevice`/`ToDevice` then pay device setup on (re)configuration,
    /// which is why vanilla hot-swap is slower (Table II).
    pub device_io: bool,
    /// TLS session keys for `TLSDecrypt`.
    pub tls_keys: SessionKeyStore,
}

impl Default for ElementEnv {
    fn default() -> Self {
        ElementEnv {
            cost: CostModel::calibrated(),
            meter: CycleMeter::new(),
            clock: SharedClock::new(),
            in_enclave: false,
            hardware_mode: false,
            device_io: false,
            tls_keys: SessionKeyStore::new(),
        }
    }
}

/// Per-invocation context handed to [`Element::process`].
///
/// Both scratch vectors are *borrowed* from the router so their
/// allocations persist across packets and batches — the hot path performs
/// no per-invocation allocation.
#[derive(Debug)]
pub struct ElementContext<'a> {
    /// Packets pushed to output ports this invocation (router-owned
    /// scratch, drained by the router after each element call).
    pub(crate) outputs: &'a mut Vec<(usize, Packet)>,
    /// Packets emitted by `ToDevice` (left the router, accepted).
    pub(crate) emitted: &'a mut Vec<Packet>,
    /// Shared environment.
    pub env: &'a ElementEnv,
}

impl<'a> ElementContext<'a> {
    /// Builds a context over caller-owned scratch/result vectors.
    pub fn new(
        outputs: &'a mut Vec<(usize, Packet)>,
        emitted: &'a mut Vec<Packet>,
        env: &'a ElementEnv,
    ) -> Self {
        ElementContext {
            outputs,
            emitted,
            env,
        }
    }

    /// Pushes `pkt` to output `port`.
    pub fn output(&mut self, port: usize, pkt: Packet) {
        self.outputs.push((port, pkt));
    }

    /// Emits `pkt` out of the router (ToDevice): marks it accepted. This is
    /// the EndBox `ToDevice` modification — it "signal\[s\] OpenVPN when a
    /// packet was accepted or rejected" (§IV).
    pub fn emit(&mut self, mut pkt: Packet) {
        pkt.meta.verdict = endbox_netsim::packet::Verdict::Accept;
        self.emitted.push(pkt);
    }
}

/// Exported element state for hot-swapping ("Click's configuration
/// hot-swapping mechanism … transfers state for elements that support
/// it").
pub type ElementState = Vec<(String, String)>;

/// A Click element.
///
/// Implementations process packets arriving on input ports and push
/// results to output ports via the [`ElementContext`]. [`Element::process`]
/// is the only way a packet enters an element: the router's batch
/// traversal calls it once per packet of each run it schedules. The trait
/// is object-safe; routers hold `Box<dyn Element>`.
pub trait Element: std::fmt::Debug + Send {
    /// The class name as written in configurations.
    fn class_name(&self) -> &'static str;

    /// Number of input ports.
    fn n_inputs(&self) -> usize {
        1
    }

    /// Number of output ports.
    fn n_outputs(&self) -> usize {
        1
    }

    /// Processes a packet arriving on `port`.
    fn process(&mut self, port: usize, pkt: Packet, ctx: &mut ElementContext<'_>);

    /// Reads a named handler (Click's read handlers, e.g. `Counter.count`).
    fn read_handler(&self, _name: &str) -> Option<String> {
        None
    }

    /// Writes a named handler.
    ///
    /// # Errors
    ///
    /// Returns [`ClickError::Handler`] for unknown handlers or bad values.
    fn write_handler(&mut self, name: &str, _value: &str) -> Result<(), ClickError> {
        Err(ClickError::Handler(format!(
            "{} has no write handler `{name}`",
            self.class_name()
        )))
    }

    /// Exports state for hot-swap transfer (`None` = stateless).
    fn export_state(&self) -> Option<ElementState> {
        None
    }

    /// Imports state exported by a same-class element during hot-swap.
    fn import_state(&mut self, _state: ElementState) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_is_direction_agnostic() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        assert_eq!(FlowId::new(a, 1000, b, 443), FlowId::new(b, 443, a, 1000));
        assert_ne!(FlowId::new(a, 1000, b, 443), FlowId::new(a, 1001, b, 443));
    }

    #[test]
    fn key_store_roundtrip() {
        let store = SessionKeyStore::new();
        let flow = FlowId::new(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        assert!(store.lookup(&flow).is_none());
        store.register(flow, [7u8; 16]);
        assert_eq!(store.lookup(&flow), Some([7u8; 16]));
        // Clones share state.
        let clone = store.clone();
        assert_eq!(clone.len(), 1);
    }
}
