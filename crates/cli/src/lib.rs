//! # pg-hive-cli
//!
//! Command-line interface to PG-HIVE. Subcommands:
//!
//! * `discover` — read a graph (CSV pair or JSON-lines), discover its
//!   schema, emit PG-Schema (STRICT/LOOSE), XSD, or JSON.
//! * `validate` — check a graph against a previously exported schema.
//! * `diff` — structural diff of two exported schemas.
//! * `stats` — Table 2-style statistics of a graph.
//! * `generate` — materialize one of the benchmark dataset twins to
//!   disk, optionally with noise.
//! * `serve` — the pg-serve HTTP server (Linux only, see below).
//!
//! The command logic lives in this library so it is unit-testable; the
//! binary is a thin wrapper.

// `serve` runs pg-serve's epoll reactor, whose `Server` exists only on
// Linux; no other target is built, so none is offered.
#[cfg(not(target_os = "linux"))]
compile_error!("pg-hive-cli builds on Linux only: `serve` runs pg-serve's epoll reactor");

pub mod commands;
pub mod opts;

pub use commands::run;
pub use opts::{CliError, Command};
