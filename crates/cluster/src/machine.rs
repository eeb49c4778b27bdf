//! Machine descriptions for the cluster simulator, including the paper's
//! Table 2 inventory.
//!
//! The paper characterises clients by their measured Java processing rate
//! in Mflop/s and the memory available to the JVM. Table 2 (150 machines):
//!
//! | # | Mflop/s | RAM (MB) | O/S | Processor |
//! |---|---------|----------|-----|-----------|
//! | 91 | 28–31 | 256 | Linux | P3 600 MHz |
//! | 50 | 190–229 | 512 | Linux | P4 2.4 GHz |
//! | 4 | 15 | 192 | Linux | P2 266 MHz |
//! | 1 | 154 | 1024 | Windows XP | P4 Centrino 1.4 GHz |
//! | 1 | 25 | 512 | Linux | P3 500 MHz |
//! | 1 | 37 | 256 | Linux | P3 1 GHz |
//! | 1 | 72 | 256 | Linux | P4 1.7 GHz |
//! | 1 | 91 | 1024 | FreeBSD | AMD 2400+XP |
//!
//! Ranges are represented by their midpoints; the stochastic availability
//! model supplies the run-to-run variation the ranges reflect.

/// One class of identical machines.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineClass {
    /// How many machines of this class the pool has.
    pub count: usize,
    /// Peak processing rate (Mflop/s, as measured by the platform's
    /// benchmark — Java-level, not hardware peak).
    pub mflops: f64,
    /// Memory available to the runtime (MB).
    pub ram_mb: u32,
    /// Operating system label (reporting only).
    pub os: String,
    /// Processor label (reporting only).
    pub cpu: String,
}

/// A pool of machines: the flattened list of classes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachinePool {
    pub classes: Vec<MachineClass>,
}

impl MachinePool {
    /// Total machine count.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// True when the pool has no machines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate peak rate of the pool (Mflop/s).
    pub fn total_mflops(&self) -> f64 {
        self.classes.iter().map(|c| c.count as f64 * c.mflops).sum()
    }

    /// Per-machine peak rates, one entry per machine (class order).
    pub fn machine_rates(&self) -> Vec<f64> {
        let mut rates = Vec::with_capacity(self.len());
        for class in &self.classes {
            rates.extend(std::iter::repeat_n(class.mflops, class.count));
        }
        rates
    }
}

/// The paper's Table 2: 150 heterogeneous, non-dedicated clients.
pub fn table2_pool() -> MachinePool {
    MachinePool {
        classes: vec![
            MachineClass {
                count: 91,
                mflops: 29.5,
                ram_mb: 256,
                os: "Linux".into(),
                cpu: "P3 600MHz".into(),
            },
            MachineClass {
                count: 50,
                mflops: 209.5,
                ram_mb: 512,
                os: "Linux".into(),
                cpu: "P4 2.4GHz".into(),
            },
            MachineClass {
                count: 4,
                mflops: 15.0,
                ram_mb: 192,
                os: "Linux".into(),
                cpu: "P2 266MHz".into(),
            },
            MachineClass {
                count: 1,
                mflops: 154.0,
                ram_mb: 1024,
                os: "Windows XP".into(),
                cpu: "P4 Centrino 1.4GHz".into(),
            },
            MachineClass {
                count: 1,
                mflops: 25.0,
                ram_mb: 512,
                os: "Linux".into(),
                cpu: "P3 500MHz".into(),
            },
            MachineClass {
                count: 1,
                mflops: 37.0,
                ram_mb: 256,
                os: "Linux".into(),
                cpu: "P3 1GHz".into(),
            },
            MachineClass {
                count: 1,
                mflops: 72.0,
                ram_mb: 256,
                os: "Linux".into(),
                cpu: "P4 1.7GHz".into(),
            },
            MachineClass {
                count: 1,
                mflops: 91.0,
                ram_mb: 1024,
                os: "FreeBSD".into(),
                cpu: "AMD 2400+XP".into(),
            },
        ],
    }
}

/// The Fig 2 speedup experiment's machines: homogeneous "Pentium IVs with
/// 512 MB RAM" (the Table 2 P4 2.4 GHz rate).
pub fn homogeneous_pool(count: usize) -> MachinePool {
    MachinePool {
        classes: vec![MachineClass {
            count,
            mflops: 209.5,
            ram_mb: 512,
            os: "Linux".into(),
            cpu: "P4 2.4GHz".into(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_150_machines() {
        assert_eq!(table2_pool().len(), 150);
    }

    #[test]
    fn table2_aggregate_rate() {
        let pool = table2_pool();
        // 91*29.5 + 50*209.5 + 4*15 + 154 + 25 + 37 + 72 + 91 = 13598.5
        assert!((pool.total_mflops() - 13_598.5).abs() < 1e-9);
    }

    #[test]
    fn machine_rates_flatten_classes() {
        let pool = table2_pool();
        let rates = pool.machine_rates();
        assert_eq!(rates.len(), 150);
        assert_eq!(rates.iter().filter(|&&r| r == 29.5).count(), 91);
        assert_eq!(rates.iter().filter(|&&r| r == 209.5).count(), 50);
    }

    #[test]
    fn homogeneous_pool_shape() {
        let pool = homogeneous_pool(60);
        assert_eq!(pool.len(), 60);
        assert_eq!(pool.classes.len(), 1);
        assert!((pool.total_mflops() - 60.0 * 209.5).abs() < 1e-9);
    }

    #[test]
    fn empty_pool() {
        let pool = homogeneous_pool(0);
        assert!(pool.is_empty());
    }
}
