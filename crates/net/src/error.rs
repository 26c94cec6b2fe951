//! Error type for the distributed backend.

use std::fmt;

use crate::wire::WireDecodeError;

/// Errors surfaced by deployment, the control protocol, and the
/// launcher.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Socket or process I/O failed.
    Io(std::io::Error),
    /// A control message failed to decode.
    Decode(WireDecodeError),
    /// The control protocol was violated (unexpected message, early
    /// close, child death mid-handshake).
    Protocol(String),
    /// The system was built without a partition — nothing to deploy.
    Unpartitioned,
    /// A platform channel belongs to no edge plan, so its endpoints
    /// cannot be placed (builder invariant violation).
    UncoveredChannel(usize),
    /// A processor's program sends or receives on a channel whose
    /// [`crate::ChannelRole`] gives that end to another processor: no
    /// node could serve the operation, so [`crate::deploy`] rejects the
    /// program before any endpoint exists.
    Misrouted {
        /// The processor whose program names the channel.
        proc: usize,
        /// The misused channel.
        channel: usize,
        /// The processor that owns that end of the channel.
        owner: usize,
        /// Whether the misused end is the sending one.
        send: bool,
    },
    /// A worker's locally built deployment disagrees with the
    /// launcher's manifest — the build is not deterministic across
    /// processes, and running would silently desynchronise.
    ManifestMismatch(String),
    /// A node process finished with a failure it reported itself.
    NodeFailed {
        /// Which node reported the failure.
        node: usize,
        /// The node's own description of what went wrong.
        error: String,
    },
    /// System construction failed inside a worker.
    Spi(spi::SpiError),
    /// Threaded execution failed.
    Platform(spi_platform::PlatformError),
    /// Partition lookup failed.
    Sched(spi_sched::SchedError),
    /// A node's trace artifact failed to parse back.
    Trace(spi_trace::TraceParseError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Decode(e) => write!(f, "control message decode error: {e}"),
            NetError::Protocol(what) => write!(f, "control protocol violation: {what}"),
            NetError::Unpartitioned => {
                write!(f, "system has no partition; build it with .partition(..)")
            }
            NetError::UncoveredChannel(ch) => {
                write!(
                    f,
                    "channel {ch} belongs to no edge plan; cannot place endpoints"
                )
            }
            NetError::Misrouted {
                proc,
                channel,
                owner,
                send,
            } => write!(
                f,
                "processor {proc} {} channel {channel}, whose end belongs to processor {owner}",
                if *send { "sends on" } else { "receives from" }
            ),
            NetError::ManifestMismatch(what) => {
                write!(f, "worker build disagrees with launcher manifest: {what}")
            }
            NetError::NodeFailed { node, error } => {
                write!(f, "node {node} failed: {error}")
            }
            NetError::Spi(e) => write!(f, "system build error: {e}"),
            NetError::Platform(e) => write!(f, "execution error: {e}"),
            NetError::Sched(e) => write!(f, "partition error: {e}"),
            NetError::Trace(e) => write!(f, "trace parse error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Decode(e) => Some(e),
            NetError::Spi(e) => Some(e),
            NetError::Platform(e) => Some(e),
            NetError::Sched(e) => Some(e),
            NetError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireDecodeError> for NetError {
    fn from(e: WireDecodeError) -> Self {
        NetError::Decode(e)
    }
}

impl From<spi::SpiError> for NetError {
    fn from(e: spi::SpiError) -> Self {
        NetError::Spi(e)
    }
}

impl From<spi_platform::PlatformError> for NetError {
    fn from(e: spi_platform::PlatformError) -> Self {
        NetError::Platform(e)
    }
}

impl From<spi_sched::SchedError> for NetError {
    fn from(e: spi_sched::SchedError) -> Self {
        NetError::Sched(e)
    }
}

impl From<spi_trace::TraceParseError> for NetError {
    fn from(e: spi_trace::TraceParseError) -> Self {
        NetError::Trace(e)
    }
}
