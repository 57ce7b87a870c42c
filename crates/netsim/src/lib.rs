//! Deterministic network and queueing simulator for the EndBox reproduction.
//!
//! The EndBox paper evaluates on a 7-machine testbed (five SGX-capable
//! 4-core Xeon v5 "class A" machines, two 4-core Xeon v2 "class B"
//! machines, 10 Gbps links, MTU 9000). This crate substitutes that testbed
//! with a simulator:
//!
//! * [`packet`] — real IPv4/TCP/UDP/ICMP packets with checksums; this is the
//!   packet type that flows through the real Click router and VPN code.
//! * [`buffer`] — the batched zero-copy datapath substrate:
//!   [`buffer::BufferPool`] recycles packet backing stores and
//!   [`buffer::PacketBatch`] moves many packets through each layer
//!   boundary (router, enclave, VPN record) as one unit.
//! * [`net`] — a vendored non-blocking socket/reactor layer behind a
//!   pluggable [`net::Transport`] trait: the deterministic in-process
//!   [`net::VirtualWire`] (global arrival stamping) and a real loopback
//!   [`net::OsWire`] UDP backend, both with `sendmmsg`/`recvmmsg`-shaped
//!   bulk I/O ([`net::UdpEndpoint::send_many`] /
//!   [`net::UdpEndpoint::recv_many`]) and a level-triggered
//!   [`net::PollGroup`] — the substrate of the event-driven server
//!   front-end.
//! * [`time`] — virtual nanosecond clock ([`time::SimTime`]).
//! * [`cost`] — the calibrated cycle-cost model ([`cost::CostModel`]) and
//!   the [`cost::CycleMeter`] that functional components charge as they
//!   process packets.
//! * [`resource`] — machines (multi-core, earliest-free-core scheduling)
//!   and links (rate + propagation delay).
//! * [`pipeline`] — replays per-packet cycle charges through the machines
//!   and links, producing throughput, latency and CPU-utilisation figures.
//! * [`traffic`] — iperf-style bulk generators, ping trains.
//! * [`http`] — the page-load and HTTPS GET latency models (Fig. 6,
//!   Table I).
//! * [`impair`] — deterministic loss/duplication/reordering for
//!   robustness tests over flaky (home-office) paths.
//! * [`stats`] — summary statistics and CDF helpers.
//!
//! Everything is deterministic: all randomness comes from caller-seeded
//! RNGs, so every experiment is reproducible bit-for-bit.

#![deny(unsafe_code)]

pub mod buffer;
pub mod cost;
pub mod http;
pub mod impair;
pub mod net;
pub mod packet;
pub mod pipeline;
pub mod resource;
pub mod stats;
pub mod time;
pub mod traffic;

pub use buffer::{recycle_packets, BufferPool, PacketBatch, PoolStats};
pub use cost::{CostModel, CycleMeter};
pub use packet::Packet;
pub use time::SimTime;
