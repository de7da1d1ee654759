//! Resource algebra: memory/vcore bundles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A logical bundle of cluster resources — YARN's `<memory, vCores>` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Resource {
    /// Memory in mebibytes.
    pub memory_mb: u64,
    /// Virtual cores. The paper sets Apex parallelism through this knob.
    pub vcores: u32,
}

impl Resource {
    /// Creates a resource bundle.
    pub fn new(memory_mb: u64, vcores: u32) -> Self {
        Resource { memory_mb, vcores }
    }

    /// The zero bundle.
    pub fn zero() -> Self {
        Resource::default()
    }

    /// Whether `other` fits inside `self` (component-wise).
    pub fn fits(&self, other: &Resource) -> bool {
        self.memory_mb >= other.memory_mb && self.vcores >= other.vcores
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(self, other: Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb.saturating_sub(other.memory_mb),
            vcores: self.vcores.saturating_sub(other.vcores),
        }
    }

    /// A crude scalar measure used by schedulers to rank nodes: free
    /// memory weighted with free cores.
    pub fn dominant_share(&self, total: &Resource) -> f64 {
        let mem = if total.memory_mb == 0 {
            0.0
        } else {
            self.memory_mb as f64 / total.memory_mb as f64
        };
        let cores = if total.vcores == 0 {
            0.0
        } else {
            f64::from(self.vcores) / f64::from(total.vcores)
        };
        mem.max(cores)
    }
}

impl Add for Resource {
    type Output = Resource;

    fn add(self, rhs: Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb + rhs.memory_mb,
            vcores: self.vcores + rhs.vcores,
        }
    }
}

impl AddAssign for Resource {
    fn add_assign(&mut self, rhs: Resource) {
        *self = *self + rhs;
    }
}

impl Sub for Resource {
    type Output = Resource;

    /// Component-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on underflow; use [`Resource::saturating_sub`] when the
    /// operands are unordered.
    fn sub(self, rhs: Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb - rhs.memory_mb,
            vcores: self.vcores - rhs.vcores,
        }
    }
}

impl SubAssign for Resource {
    fn sub_assign(&mut self, rhs: Resource) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}MiB, {} vcores>", self.memory_mb, self.vcores)
    }
}

/// A request for one container of a given size, placed on whichever node
/// the scheduler picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceRequest {
    /// Requested container size.
    pub resource: Resource,
}

impl ResourceRequest {
    /// Requests a container of `resource`.
    pub fn new(resource: Resource) -> Self {
        ResourceRequest { resource }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resource::new(1024, 2);
        let b = Resource::new(512, 1);
        assert_eq!(a + b, Resource::new(1536, 3));
        assert_eq!(a - b, Resource::new(512, 1));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn fits_is_componentwise() {
        let node = Resource::new(1024, 2);
        assert!(node.fits(&Resource::new(1024, 2)));
        assert!(node.fits(&Resource::new(0, 0)));
        assert!(!node.fits(&Resource::new(2048, 1)));
        assert!(!node.fits(&Resource::new(512, 3)));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Resource::new(100, 1);
        let b = Resource::new(200, 5);
        assert_eq!(a.saturating_sub(b), Resource::zero());
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = Resource::new(1, 1) - Resource::new(2, 1);
    }

    #[test]
    fn dominant_share() {
        let total = Resource::new(1000, 10);
        let free = Resource::new(500, 8);
        assert!((free.dominant_share(&total) - 0.8).abs() < 1e-9);
        assert_eq!(Resource::zero().dominant_share(&Resource::zero()), 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(Resource::new(4096, 1).to_string(), "<4096MiB, 1 vcores>");
    }
}
