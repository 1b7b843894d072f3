//! `ir-core` — the indirect-routing selection framework.
//!
//! This crate is the reproduction's primary contribution, implementing
//! the system of *"A Performance Analysis of Indirect Routing"* (Opos
//! et al., IPPS 2007): improve the throughput of large downloads by
//! racing an HTTP range probe over the default ("direct") Internet path
//! and one or more overlay ("indirect") paths through intermediate
//! relay nodes, then fetching the bulk of the file over whichever path
//! the probe predicts is fastest.
//!
//! * [`path`] — [`path::PathSpec`]: direct vs indirect-via-relay.
//! * [`transport`] — the abstraction the framework drives; backed by
//!   the fluid simulator here ([`sim_transport::SimTransport`]) and by
//!   real loopback sockets in `ir-relay`.
//! * [`predictor`] — the paper's first-portion predictor plus an EWMA
//!   extension.
//! * [`policy`] — candidate-relay policies: direct-only, the §2.2
//!   static single relay, the §4 uniform random set, the §6
//!   utilization-weighted extension, and bandit baselines (ε-greedy,
//!   UCB1) for ablations.
//! * [`session`] — the §2.1 protocol: concurrent control download,
//!   probe race, remainder fetch, improvement measurement — one runner
//!   for every [`SessionMode`].
//! * [`stripe`] — the striped remainder: mHTTP-style chunk scheduling
//!   over direct + best-k indirect paths with EWMA-driven rebalancing.
//! * [`record`] — per-transfer records and the three utilization
//!   statistics used across Tables II–III and Fig 5.
//! * [`aggregate`] — [`aggregate::StudySummary`]: the headline numbers
//!   (Fig 1 + Table I definitions) from any record set, in one call.

pub mod aggregate;
pub mod path;
pub mod policy;
pub mod predictor;
pub mod record;
pub mod session;
pub mod sim_transport;
pub mod stable;
pub mod stripe;
pub mod transport;

pub use aggregate::StudySummary;
pub use path::{PathSpec, MAX_HOPS};
pub use policy::{
    DirectOnly, EpsilonGreedy, FullSet, RandomSet, SelectCtx, SelectionPolicy, StaticSingle, Ucb1,
    UtilizationWeighted,
};
pub use predictor::{EwmaBlend, FirstPortion, Predictor};
pub use record::{improvement, TransferRecord, UtilizationTracker};
pub use session::{
    run_paths_session_stats, run_paths_session_traced, run_session, run_session_traced,
    ControlMode, EngineMode, FailoverConfig, ProbeMode, RebalanceConfig, SessionConfig,
    SessionMode,
};
pub use sim_transport::{SimTransport, TcpDerivation};
pub use stripe::{PathStripeStats, StripeStats};
pub use transport::{Handle, RaceWin, Timing, Transport};
