//! `yarnsim` — a miniature cluster resource manager in the style of
//! Apache Hadoop YARN.
//!
//! Apache Apex runs on YARN: a **ResourceManager** hands out **containers**
//! (logical bundles of memory and vcores) on **NodeManager** nodes, and a
//! per-application **ApplicationMaster** (Apex's STRAM) coordinates the
//! application's containers. The paper configures Apex's parallelism via
//! the YARN vcore settings, so the reproduction needs the same moving
//! parts: the `apx` engine crate deploys its operators into `yarnsim`
//! containers.
//!
//! The simulation is synchronous and single-process, and models what the
//! benchmark runs: nodes, applications, and least-loaded container
//! placement. Nodes never fail, so there are no heartbeats, no timers and
//! no container recovery (the paper leaves fault tolerance to future
//! work, §V).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use yarnsim::{Resource, ResourceManager, ResourceRequest};
//!
//! let mut rm = ResourceManager::new();
//! let node = rm.register_node(Resource::new(8192, 8));
//! let app = rm.submit_application("wordcount", Resource::new(1024, 1))?;
//! let containers = rm.allocate(app, &[ResourceRequest::new(Resource::new(2048, 2)); 2])?;
//! assert_eq!(containers.len(), 2);
//! assert_eq!(rm.node_info(node).unwrap().used.vcores, 5); // 1 AM + 2 * 2
//! # Ok(())
//! # }
//! ```

mod app;
mod container;
mod error;
mod node;
mod resource;
mod rm;
mod scheduler;

pub use app::{Application, ApplicationId, ApplicationState};
pub use container::{Container, ContainerId, ContainerState};
pub use error::{Error, Result};
pub use node::{NodeId, NodeInfo};
pub use resource::{Resource, ResourceRequest};
pub use rm::{ClusterMetrics, ResourceManager};
