//! # sns-tacc — the TACC programming model (§2.3)
//!
//! TACC = **T**ransformation, **A**ggregation, **C**aching,
//! **C**ustomization: the middle layer of the paper's architecture.
//! Service authors write *stateless, composable* workers; the SNS layer
//! runs them. This crate provides:
//!
//! * [`content::ContentObject`] — the unit of data TACC workers operate
//!   on (real text for HTML, synthetic byte/dimension models for
//!   images);
//! * [`worker::TaccWorker`] / [`worker::Aggregator`] — the two building
//!   block traits ("Transformation is an operation on a single data
//!   object … Aggregation involves collecting data from several
//!   objects");
//! * [`worker::TaccArgs`] — per-request arguments derived from the user's
//!   customisation profile, delivered to workers with each job ("the
//!   appropriate profile information is automatically delivered to
//!   workers along with the input data"), plus the variant hash used to
//!   cache post-transformation content;
//! * [`pipeline::PipelineSpec`] — Unix-pipeline-like chaining of
//!   transformations (§2.3);
//! * adapters wiring the substrate crates into SNS worker classes:
//!   [`cache_worker::CacheWorker`] (a Harvest-style cache partition),
//!   [`profile_worker::ProfileWorker`] (the ACID customisation DB) and
//!   [`origin::OriginServer`] (the simulated Internet, with the §4.4
//!   miss-penalty distribution).

#![warn(missing_docs)]

pub mod cache_worker;
pub mod content;
pub mod origin;
pub mod pipeline;
pub mod profile_worker;
pub mod worker;

pub use cache_worker::{CacheGet, CacheGetResult, CacheInject, CacheWorker};
pub use content::{Body, ContentObject};
pub use origin::{FetchRequest, OriginServer};
pub use pipeline::PipelineSpec;
pub use profile_worker::{ProfileGet, ProfilePut, ProfileReply, ProfileWorker};
pub use worker::{Aggregator, TaccArgs, TaccError, TaccWorker, TaccWorkerHost};
