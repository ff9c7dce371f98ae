//! `kecss_server` — a long-running solver service.
//!
//! The workspace's solvers are batch functions; this crate turns them into an
//! always-on request-serving layer (ROADMAP "Async / service front-end"):
//!
//! * [`protocol`] — the line-framed wire protocol (`SUBMIT`, `STATUS`,
//!   `RESULT`, `RESULT WAIT`, `CANCEL`, `METRICS`, `SHUTDOWN`) with
//!   length-prefixed result payloads and the typed [`protocol::Response`].
//! * [`wire`] — the `KGW1` binary frame mode: same requests and responses as
//!   length-prefixed frames, instances shipped as zero-parse `KGB1` edge
//!   records, negotiated per connection by a 4-byte preamble.
//! * [`event_loop`] — the single-threaded readiness loop (DESIGN.md §14)
//!   every role serves on: nonblocking sockets, per-connection state
//!   machines, bounded write queues, push-on-complete `RESULT WAIT`.
//! * [`instance`] — the `<family>:<n>` / `inline:` instance grammar and the
//!   family-generation policy shared with the CLI.
//! * [`job`] — job specs and the **pure job runner**: build instance → solve
//!   → verify exactly → serialize a canonical payload. Purity in the spec is
//!   what makes concurrent serving byte-deterministic (DESIGN.md §9).
//! * [`scheduler`] — a bounded job table with its own worker threads: at
//!   most `queue_depth` jobs in flight, `BUSY` beyond that, FIFO dispatch,
//!   cancellation of queued jobs, drain-on-shutdown.
//! * [`server`] — the TCP accept loop behind `kecss serve`.
//! * [`client`] — a blocking client (`kecss submit`, tests, CI smoke).
//! * [`coordinator`] / [`worker`] — the fleet control plane (DESIGN.md §13):
//!   a coordinator keeps this same client-facing protocol and dispatches
//!   jobs to registered workers over the same wire format, with an explicit
//!   job lifecycle ([`scheduler::FleetState`]), heartbeat-based failure
//!   detection, and retry-on-worker-loss — payloads stay byte-identical
//!   regardless of fleet size or worker death because [`job::run`] is pure
//!   in the spec.
//!
//! # Example (in-process, ephemeral port)
//!
//! ```
//! use kecss_server::client::Client;
//! use kecss_server::protocol::Request;
//! use kecss_server::server::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind(&ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     threads: 2,
//!     queue_depth: 8,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let handle = server.spawn();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let Request::Submit(spec) = Request::parse("SUBMIT ring:20 2 2ecss auto 1").unwrap() else {
//!     unreachable!()
//! };
//! let id = client.submit(&spec).unwrap().expect("queue has room");
//! let payload = client.wait_result(id, Duration::from_secs(60)).unwrap();
//! assert!(String::from_utf8(payload).unwrap().contains("verified k=2 yes"));
//! client.shutdown().unwrap();
//! assert_eq!(handle.join().completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod event_loop;
pub mod instance;
pub mod job;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle, FleetSummary};
pub use scheduler::{FleetState, JobId, JobStatus, Outcome, Scheduler, ServeSummary};
pub use server::{Server, ServerConfig, ServerHandle};
pub use worker::{Worker, WorkerConfig, WorkerHandle};
