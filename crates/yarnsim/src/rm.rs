//! The resource manager: node registry, application lifecycle, and
//! container allocation.

use crate::app::{Application, ApplicationId, ApplicationState};
use crate::container::{Container, ContainerId, ContainerState};
use crate::error::{Error, Result};
use crate::node::{NodeId, NodeInfo};
use crate::resource::{Resource, ResourceRequest};
use crate::scheduler::place_least_loaded;
use std::collections::HashMap;

/// Cluster-wide aggregate numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMetrics {
    /// Registered nodes.
    pub nodes: usize,
    /// Total capacity over all nodes.
    pub total: Resource,
    /// Allocated resources over all nodes.
    pub used: Resource,
    /// Containers currently holding resources.
    pub live_containers: usize,
    /// Applications in an active state.
    pub active_applications: usize,
}

/// The YARN-style resource manager.
///
/// Deliberately synchronous: the caller is the cluster's only source of
/// concurrency, and the `apx` engine drives it from its launcher thread.
#[derive(Debug)]
pub struct ResourceManager {
    nodes: Vec<NodeInfo>,
    apps: HashMap<ApplicationId, Application>,
    containers: HashMap<ContainerId, Container>,
    next_node: u32,
    next_app: u32,
    next_container: u64,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    /// Creates a resource manager with least-loaded placement.
    pub fn new() -> Self {
        ResourceManager {
            nodes: Vec::new(),
            apps: HashMap::new(),
            containers: HashMap::new(),
            next_node: 0,
            next_app: 0,
            next_container: 0,
        }
    }

    /// Registers a node with the given capacity, returning its id.
    pub fn register_node(&mut self, capacity: Resource) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(NodeInfo::new(id, capacity));
        id
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeInfo {
        self.nodes
            .iter_mut()
            .find(|n| n.id == id)
            .expect("containers live on registered nodes")
    }

    /// Point-in-time view of a node.
    pub fn node_info(&self, id: NodeId) -> Option<NodeInfo> {
        self.nodes.iter().find(|n| n.id == id).copied()
    }

    /// Views of all registered nodes.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        self.nodes.clone()
    }

    /// Submits an application, synchronously allocating its master
    /// container of size `am_resource` (the Apex STRAM container).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientResources`] when no node can host the
    /// master container.
    pub fn submit_application(
        &mut self,
        name: impl Into<String>,
        am_resource: Resource,
    ) -> Result<ApplicationId> {
        let app_id = ApplicationId(self.next_app);
        let master = self.place_container(app_id, ResourceRequest::new(am_resource), true)?;
        self.next_app += 1;
        self.apps.insert(
            app_id,
            Application {
                id: app_id,
                name: name.into(),
                state: ApplicationState::Accepted,
                master,
                containers: vec![master],
            },
        );
        Ok(app_id)
    }

    /// Looks up an application.
    pub fn application(&self, id: ApplicationId) -> Option<&Application> {
        self.apps.get(&id)
    }

    /// Marks an application as running (the AM has started).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApplication`] or
    /// [`Error::ApplicationNotActive`].
    pub fn application_running(&mut self, id: ApplicationId) -> Result<()> {
        let app = self
            .apps
            .get_mut(&id)
            .ok_or(Error::UnknownApplication(id))?;
        if !app.state.is_active() {
            return Err(Error::ApplicationNotActive(id));
        }
        app.state = ApplicationState::Running;
        Ok(())
    }

    /// Allocates one container per request for an active application.
    /// All-or-nothing: if any request cannot be placed, nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApplication`],
    /// [`Error::ApplicationNotActive`], or
    /// [`Error::InsufficientResources`].
    pub fn allocate(
        &mut self,
        app: ApplicationId,
        requests: &[ResourceRequest],
    ) -> Result<Vec<Container>> {
        let state = self
            .apps
            .get(&app)
            .ok_or(Error::UnknownApplication(app))?
            .state;
        if !state.is_active() {
            return Err(Error::ApplicationNotActive(app));
        }
        let mut granted = Vec::with_capacity(requests.len());
        for request in requests {
            match self.place_container(app, *request, false) {
                Ok(id) => granted.push(id),
                Err(e) => {
                    // Roll back the partial grant.
                    for id in granted {
                        let _ = self.kill_container(id);
                    }
                    return Err(e);
                }
            }
        }
        let app_entry = self.apps.get_mut(&app).expect("checked above");
        app_entry.containers.extend(granted.iter().copied());
        Ok(granted.iter().map(|id| self.containers[id]).collect())
    }

    fn place_container(
        &mut self,
        app: ApplicationId,
        request: ResourceRequest,
        is_master: bool,
    ) -> Result<ContainerId> {
        let idx = place_least_loaded(&self.nodes, request.resource).ok_or(
            Error::InsufficientResources {
                requested: request.resource,
            },
        )?;
        let node = &mut self.nodes[idx];
        node.used += request.resource;
        let node_id = node.id;
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers.insert(
            id,
            Container {
                id,
                app,
                node: node_id,
                resource: request.resource,
                state: ContainerState::Allocated,
                is_master,
            },
        );
        Ok(id)
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Containers of an application that still hold resources.
    pub fn live_containers(&self, app: ApplicationId) -> Vec<Container> {
        self.containers
            .values()
            .filter(|c| c.app == app && c.state.holds_resources())
            .copied()
            .collect()
    }

    /// Transitions a container from `Allocated` to `Running`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownContainer`] or
    /// [`Error::InvalidContainerState`].
    pub fn launch_container(&mut self, id: ContainerId) -> Result<()> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(Error::UnknownContainer(id))?;
        if c.state != ContainerState::Allocated {
            return Err(Error::InvalidContainerState {
                container: id,
                operation: "launch",
            });
        }
        c.state = ContainerState::Running;
        Ok(())
    }

    /// Completes a running container, releasing its resources.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownContainer`] or
    /// [`Error::InvalidContainerState`].
    pub fn complete_container(&mut self, id: ContainerId) -> Result<()> {
        self.finish_container(id, ContainerState::Completed, "complete")
    }

    /// Kills a container in any resource-holding state, releasing its
    /// resources: the allocation rollback and
    /// [`finish_application`](Self::finish_application) use it.
    fn kill_container(&mut self, id: ContainerId) -> Result<()> {
        self.finish_container(id, ContainerState::Killed, "kill")
    }

    fn finish_container(
        &mut self,
        id: ContainerId,
        target: ContainerState,
        op: &'static str,
    ) -> Result<()> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(Error::UnknownContainer(id))?;
        if !c.state.holds_resources() {
            return Err(Error::InvalidContainerState {
                container: id,
                operation: op,
            });
        }
        if target == ContainerState::Completed && c.state != ContainerState::Running {
            return Err(Error::InvalidContainerState {
                container: id,
                operation: op,
            });
        }
        c.state = target;
        let (node, resource) = (c.node, c.resource);
        let node = self.node_mut(node);
        node.used = node.used.saturating_sub(resource);
        Ok(())
    }

    /// Finishes an application with the given terminal state, releasing
    /// every live container.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApplication`]; finishing an already
    /// finished application is an error via
    /// [`Error::ApplicationNotActive`].
    pub fn finish_application(&mut self, id: ApplicationId, state: ApplicationState) -> Result<()> {
        debug_assert!(!state.is_active(), "finish requires a terminal state");
        let app = self
            .apps
            .get_mut(&id)
            .ok_or(Error::UnknownApplication(id))?;
        if !app.state.is_active() {
            return Err(Error::ApplicationNotActive(id));
        }
        app.state = state;
        let live: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.app == id && c.state.holds_resources())
            .map(|c| c.id)
            .collect();
        for c in live {
            let _ = self.kill_container(c);
        }
        Ok(())
    }

    /// Cluster-wide aggregate numbers.
    pub fn metrics(&self) -> ClusterMetrics {
        let mut m = ClusterMetrics::default();
        for n in &self.nodes {
            m.nodes += 1;
            m.total += n.capacity;
            m.used += n.used;
        }
        m.live_containers = self
            .containers
            .values()
            .filter(|c| c.state.holds_resources())
            .count();
        m.active_applications = self.apps.values().filter(|a| a.state.is_active()).count();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_rm() -> (ResourceManager, NodeId, NodeId) {
        let mut rm = ResourceManager::new();
        let a = rm.register_node(Resource::new(4096, 4));
        let b = rm.register_node(Resource::new(4096, 4));
        (rm, a, b)
    }

    #[test]
    fn submit_allocates_master() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let info = rm.application(app).unwrap();
        assert_eq!(info.state, ApplicationState::Accepted);
        assert!(rm.container(info.master).unwrap().is_master);
        assert_eq!(rm.metrics().live_containers, 1);
    }

    #[test]
    fn allocation_is_all_or_nothing() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        // 3 containers of 3 vcores cannot fit on 2 nodes with 4 cores each
        // (first takes one node down to 1 core, second takes the other).
        let reqs = vec![ResourceRequest::new(Resource::new(1024, 3)); 3];
        let before = rm.metrics().used;
        let err = rm.allocate(app, &reqs).unwrap_err();
        assert!(matches!(err, Error::InsufficientResources { .. }));
        assert_eq!(
            rm.metrics().used,
            before,
            "rollback must release partial grants"
        );
    }

    #[test]
    fn container_lifecycle() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let c = rm
            .allocate(app, &[ResourceRequest::new(Resource::new(256, 1))])
            .unwrap()[0]
            .id;
        assert!(
            rm.complete_container(c).is_err(),
            "cannot complete before launch"
        );
        rm.launch_container(c).unwrap();
        assert!(rm.launch_container(c).is_err(), "cannot launch twice");
        rm.complete_container(c).unwrap();
        assert!(
            rm.kill_container(c).is_err(),
            "finished containers cannot be killed"
        );
        assert_eq!(rm.container(c).unwrap().state, ContainerState::Completed);
    }

    #[test]
    fn finish_application_releases_everything() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        rm.allocate(app, &[ResourceRequest::new(Resource::new(256, 1)); 3])
            .unwrap();
        assert_eq!(rm.metrics().live_containers, 4);
        rm.finish_application(app, ApplicationState::Finished)
            .unwrap();
        assert_eq!(rm.metrics().live_containers, 0);
        assert_eq!(rm.metrics().used, Resource::zero());
        assert!(matches!(
            rm.finish_application(app, ApplicationState::Killed),
            Err(Error::ApplicationNotActive(_))
        ));
        assert!(matches!(
            rm.allocate(app, &[ResourceRequest::new(Resource::new(1, 1))]),
            Err(Error::ApplicationNotActive(_))
        ));
    }

    #[test]
    fn capacity_scheduler_balances() {
        let (mut rm, a, b) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let granted = rm
            .allocate(app, &[ResourceRequest::new(Resource::new(512, 1)); 2])
            .unwrap();
        let nodes: std::collections::HashSet<NodeId> = granted.iter().map(|c| c.node).collect();
        assert_eq!(nodes.len(), 2, "containers should spread over {a} and {b}");
    }

    #[test]
    fn unknown_ids_error() {
        let mut rm = ResourceManager::new();
        assert!(rm.launch_container(ContainerId(9)).is_err());
        assert!(rm.allocate(ApplicationId(9), &[]).is_err());
        assert!(rm.application_running(ApplicationId(9)).is_err());
        assert!(rm
            .finish_application(ApplicationId(9), ApplicationState::Finished)
            .is_err());
        assert!(rm.node_info(NodeId(9)).is_none());
        assert!(rm.container(ContainerId(9)).is_none());
    }

    #[test]
    fn submission_fails_on_empty_cluster() {
        let mut rm = ResourceManager::new();
        assert!(matches!(
            rm.submit_application("x", Resource::new(1, 1)),
            Err(Error::InsufficientResources { .. })
        ));
    }

    #[test]
    fn metrics_aggregate() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 2))
            .unwrap();
        rm.application_running(app).unwrap();
        let m = rm.metrics();
        assert_eq!(m.nodes, 2);
        assert_eq!(m.total, Resource::new(8192, 8));
        assert_eq!(m.used, Resource::new(512, 2));
        assert_eq!(m.active_applications, 1);
    }
}
