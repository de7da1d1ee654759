//! Launch-time configuration.

use yarnsim::Resource;

/// Resources requested for an application's containers.
///
/// The paper sets Apex parallelism by adjusting the number of VCOREs in
/// the YARN configuration and as a DAG attribute (§III-A2);
/// [`StramConfig::vcores`] is that knob. It sizes the YARN accounting of
/// every operator container — Apex has no per-operator parallel instances
/// to spawn, so unlike the other engines the setting changes resource
/// bookkeeping, not the dataflow, which is why the paper measures almost
/// no difference between Apex parallelism 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StramConfig {
    /// Resource of the application-master (STRAM) container.
    pub master_resource: Resource,
    /// Resource of each operator container.
    pub container_resource: Resource,
}

impl Default for StramConfig {
    fn default() -> Self {
        StramConfig {
            master_resource: Resource::new(512, 1),
            container_resource: Resource::new(1024, 1),
        }
    }
}

impl StramConfig {
    /// Sets the vcores per operator container (the parallelism knob).
    ///
    /// # Panics
    ///
    /// Panics if `vcores` is zero.
    pub fn vcores(mut self, vcores: u32) -> Self {
        assert!(vcores > 0, "containers need at least one vcore");
        self.container_resource.vcores = vcores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let c = StramConfig::default().vcores(2);
        assert_eq!(c.container_resource, Resource::new(1024, 2));
        assert_eq!(c.master_resource.vcores, 1);
    }

    #[test]
    #[should_panic(expected = "at least one vcore")]
    fn zero_vcores_panics() {
        let _ = StramConfig::default().vcores(0);
    }
}
