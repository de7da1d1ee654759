//! The resource manager: node registry, application lifecycle, and
//! container allocation.

use crate::app::{Application, ApplicationId, ApplicationState};
use crate::container::{Container, ContainerId, ContainerState};
use crate::error::{Error, Result};
use crate::node::{NodeId, NodeInfo, NodeState};
use crate::resource::{Resource, ResourceRequest};
use crate::scheduler::place_least_loaded;
use std::collections::HashMap;

/// Cluster-wide aggregate numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMetrics {
    /// Registered, healthy nodes.
    pub healthy_nodes: usize,
    /// Total capacity over healthy nodes.
    pub total: Resource,
    /// Allocated resources over healthy nodes.
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
    nodes: Vec<NodeState>,
    apps: HashMap<ApplicationId, Application>,
    containers: HashMap<ContainerId, Container>,
    next_node: u32,
    next_app: u32,
    next_container: u64,
    /// Logical time, advanced by [`ResourceManager::tick`].
    now: u64,
    /// Heartbeats older than this many ticks mark a node unhealthy.
    liveness_window: u64,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    /// Creates a resource manager with least-loaded placement and a
    /// liveness window of 10 ticks.
    pub fn new() -> Self {
        ResourceManager {
            nodes: Vec::new(),
            apps: HashMap::new(),
            containers: HashMap::new(),
            next_node: 0,
            next_app: 0,
            next_container: 0,
            now: 0,
            liveness_window: 10,
        }
    }

    /// Sets the heartbeat liveness window in ticks.
    pub fn set_liveness_window(&mut self, ticks: u64) {
        self.liveness_window = ticks;
    }

    /// Registers a node with the given capacity, returning its id.
    pub fn register_node(&mut self, capacity: Resource) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(NodeState::new(id, capacity, self.now));
        id
    }

    /// Records a heartbeat from `node`, restoring health if it had been
    /// marked unhealthy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unregistered nodes.
    pub fn heartbeat(&mut self, node: NodeId) -> Result<()> {
        let now = self.now;
        let state = self.node_mut(node)?;
        state.last_heartbeat = now;
        state.healthy = true;
        Ok(())
    }

    /// Advances logical time by one tick and expires nodes whose last
    /// heartbeat is outside the liveness window. Containers on expired
    /// nodes are killed. Returns the ids of newly expired nodes.
    pub fn tick(&mut self) -> Vec<NodeId> {
        self.now += 1;
        let window = self.liveness_window;
        let now = self.now;
        let mut expired = Vec::new();
        for node in &mut self.nodes {
            if node.healthy && now.saturating_sub(node.last_heartbeat) > window {
                node.healthy = false;
                expired.push(node.id);
            }
        }
        for node in &expired {
            let doomed = self.containers_on(*node);
            for c in &doomed {
                // Unhealthy nodes keep no resources; release unconditionally.
                let _ = self.kill_container(c.id);
            }
            // Heartbeat expiry is a failure like any other: bring the lost
            // work back up on whatever healthy capacity remains.
            self.reallocate(&doomed);
        }
        expired
    }

    /// Simulates a machine failure: marks `node` unhealthy immediately,
    /// kills every container it hosted, and reallocates each one for its
    /// still-active application onto the remaining healthy nodes — the
    /// RM-side half of YARN's container recovery. Returns the replacement
    /// containers; work no healthy node can host is dropped, exactly as a
    /// capacity-starved real cluster would drop it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unregistered nodes.
    pub fn fail_node(&mut self, node: NodeId) -> Result<Vec<Container>> {
        let state = self.node_mut(node)?;
        state.healthy = false;
        let doomed = self.containers_on(node);
        for c in &doomed {
            let _ = self.kill_container(c.id);
        }
        Ok(self.reallocate(&doomed))
    }

    fn containers_on(&self, node: NodeId) -> Vec<Container> {
        self.containers
            .values()
            .filter(|c| c.node == node && c.state.holds_resources())
            .copied()
            .collect()
    }

    /// Places a replacement for each lost container, preserving size and
    /// master-ness. Applications that already finished stay down.
    fn reallocate(&mut self, lost: &[Container]) -> Vec<Container> {
        let mut replacements = Vec::new();
        for old in lost {
            let active = self.apps.get(&old.app).is_some_and(|a| a.state.is_active());
            if !active {
                continue;
            }
            let Ok(id) =
                self.place_container(old.app, ResourceRequest::new(old.resource), old.is_master)
            else {
                continue;
            };
            if let Some(app) = self.apps.get_mut(&old.app) {
                app.containers.push(id);
                if old.is_master {
                    app.master = id;
                }
            }
            replacements.push(self.containers[&id]);
        }
        replacements
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut NodeState> {
        self.nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or(Error::UnknownNode(id))
    }

    /// Point-in-time view of a node.
    pub fn node_info(&self, id: NodeId) -> Option<NodeInfo> {
        self.nodes.iter().find(|n| n.id == id).map(NodeState::info)
    }

    /// Views of all registered nodes.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        self.nodes.iter().map(NodeState::info).collect()
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
    /// [`Error::ApplicationNotActive`], [`Error::NodeUnavailable`] for
    /// unsatisfiable pinned requests, or [`Error::InsufficientResources`].
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
        let node_id = match request.node {
            Some(pinned) => {
                let node = self
                    .nodes
                    .iter()
                    .find(|n| n.id == pinned)
                    .ok_or(Error::UnknownNode(pinned))?;
                if !node.healthy || !node.available().fits(&request.resource) {
                    return Err(Error::NodeUnavailable(pinned));
                }
                pinned
            }
            None => {
                let healthy: Vec<NodeInfo> = self
                    .nodes
                    .iter()
                    .filter(|n| n.healthy)
                    .map(NodeState::info)
                    .collect();
                let idx = place_least_loaded(&healthy, request.resource).ok_or(
                    Error::InsufficientResources {
                        requested: request.resource,
                    },
                )?;
                healthy[idx].id
            }
        };
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        let node = self.node_mut(node_id).expect("node exists");
        node.used += request.resource;
        node.containers.push(id);
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
    /// resources.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownContainer`] or
    /// [`Error::InvalidContainerState`] when the container is already
    /// finished.
    pub fn kill_container(&mut self, id: ContainerId) -> Result<()> {
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
        let node = self.node_mut(node).expect("node exists");
        node.used = node.used.saturating_sub(resource);
        node.containers.retain(|&c| c != id);
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
        for n in self.nodes.iter().filter(|n| n.healthy) {
            m.healthy_nodes += 1;
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
    fn pinned_requests() {
        let (mut rm, a, b) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let granted = rm
            .allocate(
                app,
                &[ResourceRequest::new(Resource::new(1024, 1)).on_node(b)],
            )
            .unwrap();
        assert_eq!(granted[0].node, b);
        // Pinning to a full node fails.
        let too_big = ResourceRequest::new(Resource::new(8192, 1)).on_node(a);
        assert!(matches!(
            rm.allocate(app, &[too_big]),
            Err(Error::NodeUnavailable(n)) if n == a
        ));
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
    fn heartbeat_expiry_kills_containers() {
        let (mut rm, a, b) = two_node_rm();
        rm.set_liveness_window(2);
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        rm.allocate(
            app,
            &[
                ResourceRequest::new(Resource::new(256, 1)).on_node(a),
                ResourceRequest::new(Resource::new(256, 1)).on_node(b),
            ],
        )
        .unwrap();
        // Keep b alive, let a expire.
        for _ in 0..4 {
            rm.heartbeat(b).unwrap();
            let expired = rm.tick();
            for n in &expired {
                assert_eq!(*n, a);
            }
        }
        let info_a = rm.node_info(a).unwrap();
        let info_b = rm.node_info(b).unwrap();
        assert!(!info_a.healthy);
        assert!(info_b.healthy);
        assert_eq!(
            info_a.used,
            Resource::zero(),
            "expired node released containers"
        );
        assert!(info_b.used.vcores >= 1);
        // A heartbeat revives the node.
        rm.heartbeat(a).unwrap();
        assert!(rm.node_info(a).unwrap().healthy);
    }

    #[test]
    fn fail_node_reallocates_onto_healthy_nodes() {
        let (mut rm, a, b) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        rm.allocate(
            app,
            &[
                ResourceRequest::new(Resource::new(256, 1)).on_node(a),
                ResourceRequest::new(Resource::new(256, 1)).on_node(a),
            ],
        )
        .unwrap();
        let live_before = rm.metrics().live_containers;
        let moved = rm.fail_node(a).unwrap();
        let info_a = rm.node_info(a).unwrap();
        assert!(!info_a.healthy);
        assert_eq!(info_a.used, Resource::zero());
        assert!(moved.iter().all(|c| c.node == b));
        assert_eq!(
            rm.metrics().live_containers,
            live_before,
            "every lost container came back on the healthy node"
        );
        let tracked = &rm.application(app).unwrap().containers;
        assert!(moved.iter().all(|c| tracked.contains(&c.id)));
    }

    #[test]
    fn fail_node_moves_the_application_master() {
        let (mut rm, _, _) = two_node_rm();
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let master = rm.application(app).unwrap().master;
        let home = rm.container(master).unwrap().node;
        let moved = rm.fail_node(home).unwrap();
        let new_master = rm.application(app).unwrap().master;
        assert_ne!(new_master, master);
        assert_eq!(moved[0].id, new_master);
        assert!(rm.container(new_master).unwrap().is_master);
        assert_ne!(rm.container(new_master).unwrap().node, home);
    }

    #[test]
    fn fail_node_without_capacity_drops_work() {
        let mut rm = ResourceManager::new();
        let only = rm.register_node(Resource::new(1024, 4));
        rm.submit_application("bench", Resource::new(512, 1))
            .unwrap();
        let moved = rm.fail_node(only).unwrap();
        assert!(moved.is_empty(), "no healthy node can host the master");
        assert_eq!(rm.metrics().live_containers, 0);
        assert_eq!(rm.metrics().healthy_nodes, 0);
        assert!(rm.fail_node(NodeId(9)).is_err());
    }

    #[test]
    fn heartbeat_expiry_reallocates_containers() {
        let (mut rm, a, b) = two_node_rm();
        rm.set_liveness_window(2);
        let app = rm
            .submit_application("bench", Resource::new(512, 1))
            .unwrap();
        rm.allocate(
            app,
            &[ResourceRequest::new(Resource::new(256, 1)).on_node(a)],
        )
        .unwrap();
        let live_before = rm.metrics().live_containers;
        for _ in 0..4 {
            rm.heartbeat(b).unwrap();
            rm.tick();
        }
        assert!(!rm.node_info(a).unwrap().healthy);
        assert_eq!(
            rm.metrics().live_containers,
            live_before,
            "the expired node's work moved over"
        );
        assert!(rm.live_containers(app).iter().all(|c| c.node == b));
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
        assert!(rm.heartbeat(NodeId(9)).is_err());
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
        assert_eq!(m.healthy_nodes, 2);
        assert_eq!(m.total, Resource::new(8192, 8));
        assert_eq!(m.used, Resource::new(512, 2));
        assert_eq!(m.active_applications, 1);
    }
}
