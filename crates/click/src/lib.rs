//! A from-scratch implementation of the Click modular router (Kohler et
//! al., TOCS 2000) as used by EndBox to implement middlebox functions.
//!
//! EndBox chose Click because it "(i) is widely used; (ii) has many
//! existing elements ...; (iii) provides a configuration hot-swapping
//! mechanism; and (iv) is easily extensible" (§IV). This crate provides:
//!
//! * [`config`] — the Click configuration language (declarations,
//!   connection chains, ports, anonymous elements, comments).
//! * [`element`] — the element trait, processing context, and state
//!   export/import for hot-swapping.
//! * [`registry`] — maps class names to element factories.
//! * [`router`] — instantiates a configuration into an element graph,
//!   pushes packets through it, exposes read/write handlers, and
//!   implements **hot-swapping from in-memory configuration** (the EndBox
//!   adaptation: "we adapt the hot-swapping mechanism to work with
//!   configuration files stored in memory", §IV).
//! * [`elements`] — standard elements (`Counter`, `Classifier`,
//!   `IPFilter`, `RoundRobinSwitch`, ...) plus the paper's custom elements
//!   (`IDSMatcher`, `TrustedSplitter`, `UntrustedSplitter`, `TLSDecrypt`)
//!   and the modified `ToDevice` that signals packet verdicts to OpenVPN.
//!
//! # Example
//!
//! ```
//! use endbox_click::router::Router;
//! use endbox_click::element::ElementEnv;
//! use endbox_netsim::Packet;
//! use std::net::Ipv4Addr;
//!
//! let mut router = Router::from_config(
//!     "FromDevice(tun0) -> c :: Counter -> ToDevice(tun0);",
//!     ElementEnv::default(),
//! ).unwrap();
//! let pkt = Packet::udp(Ipv4Addr::new(10,0,0,1), Ipv4Addr::new(10,0,1,1), 1, 2, b"hi");
//! let out = router.process(pkt);
//! assert_eq!(out.emitted.len(), 1);
//! assert_eq!(router.read_handler("c", "count").as_deref(), Some("1"));
//! ```

#![deny(unsafe_code)]

pub mod config;
pub mod element;
pub mod elements;
pub mod error;
pub mod registry;
pub mod router;

pub use element::{Element, ElementContext, ElementEnv};
pub use error::ClickError;
pub use router::{Router, RouterOutput};
