//! The single-threaded reference server ([`EndBoxServer`]): the frame,
//! open and deliver steps composed inline, one datagram at a time.

use super::rx::RxShard;
use super::{Delivery, EndBoxServerConfig, Server, ServerIo};
use crate::error::EndBoxError;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_vpn::proto::Opcode;
use endbox_vpn::server::VpnServer;

/// The EndBox VPN server as the paper runs it: one single-threaded
/// process (§V-E). One inline [`VpnServer`] under one inline RX shard,
/// every datagram run to completion in input order — no thread, no
/// channel — which makes it the oracle the sharded server is compared
/// against.
pub type EndBoxServer = Server<VpnServer, RxShard>;

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
        let outcome = self.rx.frame(peer_id, datagram.to_vec());
        let record = match self.framed(outcome) {
            Ok(record) => record,
            Err(result) => return result,
        };
        let now_secs = self.io.now_secs();
        let event = self.vpn.handle_record(&record, now_secs);
        let delivery = self.deliver(event);
        if record.opcode == Opcode::Disconnect {
            let confirmed = matches!(delivery, Ok(Delivery::Disconnected { .. }));
            self.rx.teardown(peer_id, confirmed);
        }
        delivery
    }

    /// Reads a handler on the server-side Click instance, if any.
    pub fn server_click_handler(&self, element: &str, handler: &str) -> Option<String> {
        self.click.as_ref()?.read_handler(element, handler)
    }

    /// Hot-swaps the server-side Click configuration (used by the vanilla
    /// Click reconfiguration baseline of Table II).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] on invalid configs or if no server-side
    /// Click exists.
    pub fn hot_swap_server_click(&mut self, config: &str) -> Result<(), EndBoxError> {
        match self.click.as_mut() {
            Some(router) => {
                router.hot_swap(config)?;
                Ok(())
            }
            None => Err(EndBoxError::NotReady("no server-side Click instance")),
        }
    }
}
