//! One error type to `?` across every network layer.
//!
//! Each layer keeps its own precise error ([`RouteError`],
//! [`MeshError`], [`FaultPlanError`]), but callers composing layers —
//! open a route, maybe fall back to the mesh, drive a fault plan — want
//! a single error type a `?` can land in. [`NetError`] is that sum: every layer error
//! converts into it with `From`, and it implements
//! [`std::error::Error`] with [`Error::source`](std::error::Error::source)
//! pointing back at the layer error where one exists.

use crate::fault::FaultPlanError;
use crate::mesh::MeshError;
use crate::network::RouteError;

/// Any failure the network substrate can report, across layers.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// Opening a crossbar route failed.
    Route(RouteError),
    /// A mesh operation failed.
    Mesh(MeshError),
    /// A fault plan was malformed.
    FaultPlan(FaultPlanError),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Route(e) => write!(f, "route: {e}"),
            NetError::Mesh(e) => write!(f, "mesh: {e}"),
            NetError::FaultPlan(e) => write!(f, "fault plan: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Route(e) => Some(e),
            NetError::Mesh(e) => Some(e),
            NetError::FaultPlan(e) => Some(e),
        }
    }
}

impl From<RouteError> for NetError {
    fn from(e: RouteError) -> Self {
        NetError::Route(e)
    }
}

impl From<MeshError> for NetError {
    fn from(e: MeshError) -> Self {
        NetError::Mesh(e)
    }
}

impl From<FaultPlanError> for NetError {
    fn from(e: FaultPlanError) -> Self {
        NetError::FaultPlan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn question_mark_lands_layer_errors_in_net_error() {
        fn open_nowhere() -> Result<(), NetError> {
            Err(RouteError::NoPath)?;
            Ok(())
        }
        let e = open_nowhere().unwrap_err();
        assert_eq!(e, NetError::Route(RouteError::NoPath));
        assert!(e.source().is_some(), "source points at the layer error");
        assert_eq!(
            e.to_string(),
            "route: no path between the nodes on this plane"
        );
    }

    #[test]
    fn fault_plan_error_converts() {
        let e: NetError = FaultPlanError::InvalidRate(2.0).into();
        assert!(matches!(e, NetError::FaultPlan(_)));
        assert!(e.to_string().starts_with("fault plan: "));
    }
}
