//! `pargrid-net`: the TCP serving layer in front of the parallel grid file.
//!
//! This crate is the real network boundary the ROADMAP's "serving heavy
//! traffic" north star needs. It is built on `std::net` only — the repo's offline constraint
//! rules out tokio-shaped dependencies, and a thread-per-connection blocking
//! design is exactly the coordinator/worker SPMD shape of the paper's SP-2
//! program anyway.
//!
//! Four pieces:
//!
//! * [`frame`] — length-prefixed, CRC-32-trailered binary frames with a
//!   protocol version byte. Decoding hostile bytes can fail only into
//!   [`frame::FrameError`], never panic.
//! * [`proto`] — typed requests ([`proto::Request`]) and replies
//!   ([`proto::Response`]) with strict payload validation (dimension
//!   bounds, finite coordinates, ordered intervals) so wire data can never
//!   reach a panicking `Rect::new`/`Point::new` assert.
//! * [`server`] — a multi-threaded server owning an engine handle: one
//!   thread per connection runs each request to completion on its own
//!   [`pargrid_parallel::QuerySession`] behind a counting admission gate
//!   with load shedding, with Prometheus metrics and graceful draining
//!   shutdown.
//! * [`client`] + [`loadgen`] — a blocking client with connect
//!   retry/backoff, and an open-loop load generator (schedule-corrected
//!   sojourn times, wrk2-style) used by the `repro serving` experiment.

#![warn(missing_docs)]

pub mod client;
pub mod cluster_proto;
pub mod frame;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use cluster_proto::{ClusterRequest, ClusterResponse, MetaOp, WireReply};
pub use frame::{
    read_frame, write_frame, Frame, FrameBuilder, FrameError, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use loadgen::{LoadQuery, LoadgenConfig, LoadgenReport};
pub use proto::{
    MutationAck, ProtoError, RebalanceCmd, RebalanceSummary, RecordsReply, Request, Response,
    WireError,
};
pub use server::{ClusterHooks, Server, ServerConfig};

/// The crate's most commonly used types, flat: client/server construction
/// and the typed errors every wire surface reports ([`FrameError`],
/// [`ProtoError`], [`WireError`], [`ClientError`] — all `#[non_exhaustive]`
/// per the workspace error convention).
pub mod prelude {
    pub use crate::client::{Client, ClientError};
    pub use crate::cluster_proto::{ClusterRequest, ClusterResponse, MetaOp, WireReply};
    pub use crate::frame::{Frame, FrameBuilder, FrameError};
    pub use crate::proto::{
        MutationAck, ProtoError, RebalanceCmd, RebalanceSummary, RecordsReply, Request, Response,
        WireError,
    };
    pub use crate::server::{ClusterHooks, Server, ServerConfig};
}
