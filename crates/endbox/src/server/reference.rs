//! The single-threaded reference server ([`EndBoxServer`]): the frame,
//! open and deliver steps composed inline, one datagram at a time.

use super::rx::{Outcome, RxShard};
use super::{Delivery, EndBoxServerConfig, Server, ServerIo};
use crate::error::EndBoxError;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_vpn::server::VpnServer;
use endbox_vpn::shard::ShardEvent;

/// The EndBox VPN server as the paper runs it: one single-threaded
/// process (§V-E). One inline [`VpnServer`] under one inline RX shard,
/// every datagram run to completion in input order — no thread, no
/// channel — which makes it the oracle the sharded server is compared
/// against.
pub type EndBoxServer = Server<RxShard>;

impl std::fmt::Debug for EndBoxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndBoxServer")
            .field("sessions", &self.session_count())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl EndBoxServer {
    /// Builds the server.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] if the server-side Click config is invalid.
    pub fn new(cfg: EndBoxServerConfig) -> Result<EndBoxServer, EndBoxError> {
        let server_click = match &cfg.server_click {
            None => None,
            Some(text) => {
                let env = ElementEnv {
                    cost: cfg.cost.clone(),
                    meter: cfg.meter.clone(),
                    clock: cfg.clock.clone(),
                    in_enclave: false,
                    hardware_mode: false,
                    // The attached Click receives packets over a socket
                    // from OpenVPN; it does not own devices (fetch/IPC
                    // costs are charged on delivery instead).
                    device_io: false,
                    tls_keys: Default::default(),
                };
                Some(Router::from_config(text, env)?)
            }
        };
        let vpn = VpnServer::new(
            cfg.handshake,
            cfg.suite,
            cfg.meter.clone(),
            cfg.cost.clone(),
            cfg.rng_seed,
        );
        let rx = RxShard::new(&cfg.meter, &cfg.cost);
        let io = ServerIo::new(cfg.cost, cfg.meter, cfg.clock);
        Ok(Server::assemble(vpn, rx, server_click, io))
    }

    /// Receives one wire datagram from peer `peer_id` (a socket-address
    /// analogue used to separate fragment streams).
    ///
    /// # Errors
    ///
    /// Every authentication/policy failure; callers drop the traffic.
    pub fn receive_datagram(
        &mut self,
        peer_id: u64,
        datagram: &[u8],
    ) -> Result<Delivery, EndBoxError> {
        self.receive_owned(peer_id, datagram.to_vec())
    }

    /// Receives a batch of wire datagrams — from any mix of clients —
    /// returning one result per datagram in input order: the inline
    /// frame → open → deliver step run over each in turn. Takes the
    /// datagrams by value, so the step adopts each one without a copy.
    pub fn receive_datagrams(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<Delivery, EndBoxError>> {
        datagrams
            .into_iter()
            .map(|(peer_id, datagram)| self.receive_owned(peer_id, datagram))
            .collect()
    }

    /// The inline step over one owned datagram.
    fn receive_owned(&mut self, peer_id: u64, datagram: Vec<u8>) -> Result<Delivery, EndBoxError> {
        let outcome = match self.rx.frame(peer_id, datagram) {
            Err(outcome) => outcome,
            Ok(record) => {
                let now_secs = self.io.now_secs();
                let event = self.vpn.handle_record(&record, peer_id, now_secs);
                if matches!(event, Ok(ShardEvent::Disconnected { .. })) {
                    self.rx.teardown(peer_id);
                }
                Outcome::Opened(event)
            }
        };
        self.finish(outcome)
    }
}
