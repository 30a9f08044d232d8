//! Resource vectors: CPU millicores + memory bytes.
//!
//! Millicores follow the Kubernetes convention (1000 = one core) so
//! fractional CPU allocations stay integral and hashable; memory is plain
//! bytes.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A (CPU, memory) resource vector.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Resources {
    /// CPU in millicores (1000 = 1 core).
    pub cpu_millis: u64,
    /// Memory in bytes.
    pub mem_bytes: u64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources { cpu_millis: 0, mem_bytes: 0 };

    /// Builds from whole cores and GiB.
    pub fn new(cores: f64, mem_gb: f64) -> Self {
        Resources {
            cpu_millis: (cores.max(0.0) * 1000.0).round() as u64,
            mem_bytes: (mem_gb.max(0.0) * GIB as f64).round() as u64,
        }
    }

    /// Builds from raw millicores and bytes.
    pub(crate) const fn from_raw(cpu_millis: u64, mem_bytes: u64) -> Self {
        Resources { cpu_millis, mem_bytes }
    }

    /// CPU in fractional cores.
    pub fn cores(&self) -> f64 {
        self.cpu_millis as f64 / 1000.0
    }

    /// Memory in fractional GiB.
    pub fn mem_gb(&self) -> f64 {
        self.mem_bytes as f64 / GIB as f64
    }

    /// True when `other` fits inside `self` on both axes.
    pub fn fits(&self, other: &Resources) -> bool {
        other.cpu_millis <= self.cpu_millis && other.mem_bytes <= self.mem_bytes
    }

    /// Element-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(other.cpu_millis),
            mem_bytes: self.mem_bytes.saturating_sub(other.mem_bytes),
        }
    }

    /// Element-wise minimum.
    pub(crate) fn component_min(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.min(other.cpu_millis),
            mem_bytes: self.mem_bytes.min(other.mem_bytes),
        }
    }

    /// Scales both axes by a non-negative factor.
    pub fn scale(&self, factor: f64) -> Resources {
        debug_assert!(factor >= 0.0);
        Resources {
            cpu_millis: (self.cpu_millis as f64 * factor).round() as u64,
            mem_bytes: (self.mem_bytes as f64 * factor).round() as u64,
        }
    }

    /// True when both axes are zero.
    pub fn is_zero(&self) -> bool {
        *self == Resources::ZERO
    }
}

/// Bytes per GiB.
pub(crate) const GIB: u64 = 1024 * 1024 * 1024;

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_add(rhs.cpu_millis),
            mem_bytes: self.mem_bytes.saturating_add(rhs.mem_bytes),
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        debug_assert!(self.fits(&rhs), "resource subtraction underflow: {self:?} - {rhs:?}");
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} cores / {:.1} GiB", self.cores(), self.mem_gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        let r = Resources::new(2.5, 8.0);
        assert_eq!(r.cpu_millis, 2500);
        assert_eq!(r.mem_bytes, 8 * GIB);
        assert_eq!(r.cores(), 2.5);
        assert_eq!(r.mem_gb(), 8.0);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        let r = Resources::new(-1.0, -2.0);
        assert!(r.is_zero());
    }

    #[test]
    fn fits_requires_both_axes() {
        let cap = Resources::new(4.0, 16.0);
        assert!(cap.fits(&Resources::new(4.0, 16.0)));
        assert!(cap.fits(&Resources::new(1.0, 1.0)));
        assert!(!cap.fits(&Resources::new(5.0, 1.0)));
        assert!(!cap.fits(&Resources::new(1.0, 17.0)));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Resources::new(2.0, 4.0);
        let b = Resources::new(1.0, 1.0);
        assert_eq!(a + b - b, a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Resources::new(1.0, 1.0);
        let b = Resources::new(2.0, 0.5);
        let d = a.saturating_sub(&b);
        assert_eq!(d.cpu_millis, 0);
        assert_eq!(d.mem_bytes, GIB / 2);
    }

    #[test]
    fn scale_and_min() {
        let a = Resources::new(2.0, 8.0);
        assert_eq!(a.scale(0.5), Resources::new(1.0, 4.0));
        assert_eq!(a.scale(0.0), Resources::ZERO);
        let b = Resources::new(3.0, 4.0);
        assert_eq!(a.component_min(&b), Resources::new(2.0, 4.0));
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(format!("{}", Resources::new(2.0, 8.0)), "2.0 cores / 8.0 GiB");
    }
}
