//! `ujam-serve` — a batched, deadline-aware optimization service over
//! the `ujam-core` pipeline.
//!
//! The optimizer is fast, but real users ask for the same decisions over
//! and over: build systems re-optimizing an unchanged kernel, sweeps
//! re-visiting a nest under the same machine model.  This crate wraps
//! the pipeline in a long-running daemon that answers newline-delimited
//! JSON requests (see [`proto`]) and makes repeated work free:
//!
//! * **content-addressed decision cache** ([`cache`]) — keyed by the
//!   nest's canonical text plus the machine and cost model, so identical
//!   problems share one entry no matter how they were submitted; LRU
//!   eviction, hit/miss/evict counters through `ujam-trace`;
//! * **micro-batching worker pool** ([`Server::run`]) — pipelined
//!   requests are drained into batches and fanned across the same
//!   deterministic `parallel_map_indexed` pool the batch optimizer
//!   uses, replies always in request order;
//! * **per-request deadlines** — `deadline_ms` arms a
//!   [`CancelToken`](ujam_core::CancelToken) that the search passes poll
//!   at candidate granularity; an elapsed deadline answers with a
//!   structured `deadline_exceeded` error and caches nothing;
//! * **total error discipline** — malformed JSON, unknown kernels,
//!   unparsable Fortran, invalid nests, and even optimizer panics each
//!   produce a structured error reply; the daemon never dies on input;
//! * **runtime metrics and an admin channel** — a server built with
//!   [`Server::with_metrics`] records request/latency/cache metrics
//!   into a `ujam-metrics` registry and answers `{"cmd":"stats"}` admin
//!   lines (the `ujam stats` subcommand) with a versioned JSON
//!   snapshot;
//! * **an event-loop front end** ([`reactor`]) — TCP and Unix-socket
//!   listeners multiplexed by one `poll(2)` thread over nonblocking
//!   sockets with incremental NDJSON framing ([`frame`]), a fixed
//!   worker pool fed by a bounded queue, an N-way content-hash-sharded
//!   decision cache ([`shard`]), and admission control (load-shedding
//!   `overloaded` replies, per-connection in-flight caps, idle/slow-
//!   loris read timeouts).  TCP clients open with a versioned
//!   `{"cmd":"hello"}` handshake ([`proto::PROTOCOL_VERSION`]).
//!
//! # Example
//!
//! ```
//! use ujam_serve::{ServeConfig, Server};
//!
//! // One worker: a batch's lines are then answered in order, so the
//! // duplicate deterministically finds the first reply in the cache.
//! let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
//! let server = Server::new(cfg, ujam_trace::null_sink());
//! let mut out = Vec::new();
//! let requests = "{\"id\":\"1\",\"kernel\":\"dmxpy1\"}\n{\"id\":\"2\",\"kernel\":\"dmxpy1\"}\n";
//! server.run(std::io::Cursor::new(requests), &mut out).unwrap();
//! let text = String::from_utf8(out).unwrap();
//! assert_eq!(text.lines().count(), 2); // one reply per request, in order
//! assert!(text.lines().all(|l| l.contains("\"ok\":true")));
//! assert!(text.lines().nth(1).unwrap().contains("\"cached\":true")); // duplicate
//! ```

// `unsafe` is denied crate-wide and allowed in exactly one module:
// `sys`, the hand-rolled poll(2) binding (the offline registry has no
// `libc`).  Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod flight;
pub mod frame;
pub mod proto;
#[cfg(unix)]
pub mod reactor;
mod server;
pub mod shard;
#[cfg(unix)]
mod sys;

pub use cache::{decision_key, CacheStats, Decision, DecisionCache};
pub use flight::{
    FlightRecorder, TimelineState, DEFAULT_FLIGHT_CAPACITY, DEFAULT_SLOW_MS, FLIGHT_VERSION,
};
pub use frame::{Frame, LineDecoder, MAX_LINE_BYTES};
pub use proto::{
    stats_reply, AdminCmd, AdminRequest, ErrorKind, ErrorReply, Incoming, OkReply, Reply, Request,
    Source, PROTOCOL_VERSION,
};
#[cfg(unix)]
pub use reactor::{ReactorConfig, Transports};
pub use server::{ServeConfig, Server};
pub use shard::{shard_of, InsertOutcome, ShardedDecisionCache};
