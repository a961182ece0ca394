//! Machine configuration: the paper's Table 3 latencies and HPS machine
//! parameters.

use sim_isa::InstrClass;
use std::fmt;
use target_cache::harness::FrontEndConfig;

/// Data cache geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DCacheConfig {
    /// Total capacity in bytes (the paper simulates a 16 KB data cache).
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Extra cycles added to a load that misses ("latency for fetching
    /// data from memory is 10 cycles").
    pub miss_penalty: u32,
}

impl DCacheConfig {
    /// The paper's data cache: 16 KB; line size and associativity are not
    /// stated, so we use era-typical values (32-byte lines, 4-way).
    pub fn isca97() -> Self {
        DCacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            assoc: 4,
            miss_penalty: 10,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is malformed (see [`DCacheConfig::check`]).
    pub fn sets(&self) -> usize {
        self.set_count().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns the first defect: a zero line size, zero associativity, or
    /// a geometry that does not divide into a nonzero power-of-two number
    /// of sets.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.set_count().map(|_| ())
    }

    fn set_count(&self) -> Result<usize, ConfigError> {
        if self.line_bytes == 0 {
            return Err(ConfigError::ZeroLineBytes);
        }
        if self.assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        let sets = self
            .line_bytes
            .checked_mul(self.assoc)
            .map_or(0, |way_bytes| self.size_bytes / way_bytes);
        if !sets.is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets });
        }
        Ok(sets)
    }
}

/// Why a [`MachineConfig`] is invalid, one variant per defect
/// [`MachineConfig::check`] detects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Fetch or retire width is zero.
    ZeroWidth,
    /// The in-flight window holds no instructions.
    ZeroWindow,
    /// There are no function units.
    NoFunctionUnits,
    /// Some instruction class has zero latency.
    ZeroLatency,
    /// The data cache's line size is zero.
    ZeroLineBytes,
    /// The data cache has zero ways.
    ZeroAssociativity,
    /// The data cache geometry divides into `sets` sets, which is not a
    /// nonzero power of two.
    SetsNotPowerOfTwo {
        /// The set count the geometry implies.
        sets: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWidth => f.write_str("fetch and retire width must be nonzero"),
            ConfigError::ZeroWindow => f.write_str("window size must be nonzero"),
            ConfigError::NoFunctionUnits => {
                f.write_str("machine needs at least one function unit")
            }
            ConfigError::ZeroLatency => f.write_str("instruction latencies must be nonzero"),
            ConfigError::ZeroLineBytes => f.write_str("data cache line size must be nonzero"),
            ConfigError::ZeroAssociativity => {
                f.write_str("data cache associativity must be nonzero")
            }
            ConfigError::SetsNotPowerOfTwo { sets } => write!(
                f,
                "data cache geometry gives {sets} sets; the set count must be a nonzero power of two"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full machine configuration for the timing model.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Instructions fetched per cycle (stops at a taken branch).
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Maximum instructions in flight ("the maximum number of instructions
    /// that can exist in the machine at one time").
    pub window_size: usize,
    /// Number of universal function units ("each functional unit can
    /// execute instructions from any of the instruction classes").
    pub fu_count: usize,
    /// Pipeline stages between fetch and earliest execute (decode/rename).
    pub front_depth: u32,
    /// Execution latency per instruction class (Table 3).
    pub latencies: [u32; 8],
    /// Data cache.
    pub dcache: DCacheConfig,
    /// Front-end predictors (BTB, direction predictor, RAS, target cache).
    pub frontend: FrontEndConfig,
}

impl MachineConfig {
    /// The paper's HPS configuration with the given front end.
    ///
    /// Table 3 latencies: integer/store/bit-field/branch 1 cycle, FP add 3,
    /// multiply 3, divide 8, load 2 (plus the miss penalty). Width and
    /// window values follow the paper where legible (wide issue, perfect
    /// I-cache, 16 KB D-cache) and era-standard HPS values elsewhere
    /// (8-wide, 32 in flight), recorded in EXPERIMENTS.md.
    pub fn isca97(frontend: FrontEndConfig) -> Self {
        let mut latencies = [1u32; 8];
        latencies[InstrClass::FpAdd.index()] = 3;
        latencies[InstrClass::Mul.index()] = 3;
        latencies[InstrClass::Div.index()] = 8;
        latencies[InstrClass::Load.index()] = 2;
        MachineConfig {
            fetch_width: 8,
            retire_width: 8,
            window_size: 32,
            fu_count: 8,
            front_depth: 2,
            latencies,
            dcache: DCacheConfig::isca97(),
            frontend,
        }
    }

    /// The execution latency of an instruction class.
    pub fn latency(&self, class: InstrClass) -> u32 {
        self.latencies[class.index()]
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first invalid parameter: zero widths, zero window, no
    /// function units, zero-latency classes, or a malformed data cache
    /// ([`DCacheConfig::check`]).
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 || self.retire_width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if self.window_size == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.fu_count == 0 {
            return Err(ConfigError::NoFunctionUnits);
        }
        if self.latencies.contains(&0) {
            return Err(ConfigError::ZeroLatency);
        }
        self.dcache.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca97_latencies_match_table3() {
        let c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        assert_eq!(c.latency(InstrClass::Integer), 1);
        assert_eq!(c.latency(InstrClass::FpAdd), 3);
        assert_eq!(c.latency(InstrClass::Mul), 3);
        assert_eq!(c.latency(InstrClass::Div), 8);
        assert_eq!(c.latency(InstrClass::Load), 2);
        assert_eq!(c.latency(InstrClass::Store), 1);
        assert_eq!(c.latency(InstrClass::BitField), 1);
        assert_eq!(c.latency(InstrClass::Branch), 1);
    }

    #[test]
    fn isca97_machine_shape() {
        let c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.window_size, 32);
        assert!(c.check().is_ok());
    }

    #[test]
    fn dcache_geometry() {
        let d = DCacheConfig::isca97();
        assert_eq!(d.sets(), 128);
        assert_eq!(d.miss_penalty, 10);
    }

    #[test]
    fn check_rejects_broken_configs() {
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.fetch_width = 0;
        assert!(c.check().is_err());
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.window_size = 0;
        assert!(c.check().is_err());
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.latencies[0] = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroLatency));
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.fu_count = 0;
        assert_eq!(c.check(), Err(ConfigError::NoFunctionUnits));
    }

    #[test]
    fn check_rejects_malformed_data_caches_instead_of_panicking() {
        let broken = |edit: fn(&mut DCacheConfig)| {
            let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
            edit(&mut c.dcache);
            c.check()
        };
        assert_eq!(
            broken(|d| d.line_bytes = 0),
            Err(ConfigError::ZeroLineBytes)
        );
        assert_eq!(broken(|d| d.assoc = 0), Err(ConfigError::ZeroAssociativity));
        // 16 KB / (32 B x 3 ways) = 170 sets.
        assert_eq!(
            broken(|d| d.assoc = 3),
            Err(ConfigError::SetsNotPowerOfTwo { sets: 170 })
        );
        // Smaller than one set.
        assert_eq!(
            broken(|d| d.size_bytes = 64),
            Err(ConfigError::SetsNotPowerOfTwo { sets: 0 })
        );
        // A way size that overflows usize is rejected, not wrapped.
        assert_eq!(
            broken(|d| {
                d.line_bytes = usize::MAX;
                d.assoc = 2;
            }),
            Err(ConfigError::SetsNotPowerOfTwo { sets: 0 })
        );
        let e = broken(|d| d.line_bytes = 0).unwrap_err();
        assert_eq!(e.to_string(), "data cache line size must be nonzero");
    }

    #[test]
    #[should_panic(expected = "associativity must be nonzero")]
    fn sets_panics_with_the_check_diagnosis() {
        let mut d = DCacheConfig::isca97();
        d.assoc = 0;
        d.sets();
    }
}
