//! Deterministic fault injection.
//!
//! Real GPU query engines must survive transient device failures: a PCIe
//! transfer that times out, a kernel launch the driver rejects, an allocation
//! that fails under momentary pressure. The simulator models these as
//! injectable faults so the resilience layer in `kw-core` can be exercised
//! deterministically: every decision is driven by a seeded splitmix64 stream
//! (plus an optional explicit schedule), so a given
//! `(seed, rates, operation sequence)` always produces the same fault
//! pattern — retries are reproducible by construction.

/// The class of device operation a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A PCIe transfer failed mid-flight.
    Transfer,
    /// A kernel launch was rejected by the (simulated) driver.
    Launch,
    /// A device allocation failed transiently (not a capacity miss).
    Alloc,
}

impl FaultKind {
    /// All fault kinds, in a stable order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Transfer, FaultKind::Launch, FaultKind::Alloc];

    fn index(self) -> usize {
        match self {
            FaultKind::Transfer => 0,
            FaultKind::Launch => 1,
            FaultKind::Alloc => 2,
        }
    }

    /// Stable lowercase name, used in fault span labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transfer => "transfer",
            FaultKind::Launch => "launch",
            FaultKind::Alloc => "alloc",
        }
    }
}

/// Fire a fault on one specific attempt of one operation kind.
///
/// `attempt` is a zero-based per-kind counter: `{ kind: Transfer, attempt: 0 }`
/// fails the first transfer the device performs, whether or not random rates
/// are also configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Which operation kind to strike.
    pub kind: FaultKind,
    /// Zero-based index among operations of that kind.
    pub attempt: u64,
}

/// Configuration for a [`FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the random stream. Two devices configured with the same seed
    /// and rates inject identical fault patterns for identical op sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given PCIe transfer faults.
    pub transfer_rate: f64,
    /// Probability in `[0, 1]` that any given kernel launch faults.
    pub launch_rate: f64,
    /// Probability in `[0, 1]` that any given allocation faults.
    pub alloc_rate: f64,
    /// Faults fired at exact per-kind attempt indices, independent of rates.
    pub script: Vec<ScriptedFault>,
}

impl FaultConfig {
    /// The same fault probability for transfers, launches and allocations.
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            transfer_rate: rate,
            launch_rate: rate,
            alloc_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Purely scripted faults: nothing random, only the listed attempts fail.
    pub fn scripted(script: Vec<ScriptedFault>) -> FaultConfig {
        FaultConfig {
            script,
            ..FaultConfig::default()
        }
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Transfer => self.transfer_rate,
            FaultKind::Launch => self.launch_rate,
            FaultKind::Alloc => self.alloc_rate,
        }
    }
}

/// Decides, operation by operation, whether to inject a fault.
///
/// Owned by a [`crate::Device`] once installed via
/// [`crate::Device::inject_faults`]. Scratch devices spawned during chunked
/// execution call [`FaultInjector::split`] to obtain an independent but still
/// deterministic stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    state: u64,
    attempts: [u64; 3],
    injected: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Build an injector from its configuration.
    pub fn new(config: FaultConfig) -> FaultInjector {
        let state = config.seed;
        FaultInjector {
            config,
            state,
            attempts: [0; 3],
            injected: 0,
        }
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Per-kind operation attempts observed so far.
    pub fn attempts(&self, kind: FaultKind) -> u64 {
        self.attempts[kind.index()]
    }

    /// Should the next operation of `kind` fault? Advances the per-kind
    /// attempt counter and (when a rate is configured) the random stream.
    pub fn should_fault(&mut self, kind: FaultKind) -> bool {
        let attempt = self.attempts[kind.index()];
        self.attempts[kind.index()] += 1;

        let scripted = self
            .config
            .script
            .iter()
            .any(|s| s.kind == kind && s.attempt == attempt);

        let rate = self.config.rate(kind);
        // Kinds with a zero rate consume no draws, so purely scripted configs
        // keep the stream untouched.
        let random = if rate > 0.0 {
            let unit = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
            unit < rate
        } else {
            false
        };

        let fired = scripted || random;
        if fired {
            self.injected += 1;
        }
        fired
    }

    /// Derive an independent injector for a scratch device: same rates, a
    /// distinct deterministic stream, and no scripted faults (the script is
    /// positional against the parent device's own operation sequence).
    pub fn split(&mut self) -> FaultInjector {
        let child_seed = splitmix64(&mut self.state);
        FaultInjector::new(FaultConfig {
            seed: child_seed,
            script: Vec::new(),
            ..self.config.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(42, 0.0));
        for _ in 0..1000 {
            for kind in FaultKind::ALL {
                assert!(!inj.should_fault(kind));
            }
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn full_rate_always_faults() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(42, 1.0));
        for _ in 0..100 {
            assert!(inj.should_fault(FaultKind::Transfer));
        }
        assert_eq!(inj.injected(), 100);
    }

    #[test]
    fn rate_is_respected_statistically() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(7, 0.2));
        let hits = (0..10_000)
            .filter(|_| inj.should_fault(FaultKind::Launch))
            .count();
        assert!((1_500..2_500).contains(&hits), "{hits}");
    }

    #[test]
    fn same_seed_same_pattern() {
        let mut a = FaultInjector::new(FaultConfig::uniform(9, 0.3));
        let mut b = FaultInjector::new(FaultConfig::uniform(9, 0.3));
        for _ in 0..500 {
            let kind = FaultKind::ALL[(a.attempts(FaultKind::Transfer) % 3) as usize];
            assert_eq!(a.should_fault(kind), b.should_fault(kind));
        }
    }

    #[test]
    fn script_fires_on_exact_attempt() {
        let mut inj = FaultInjector::new(FaultConfig::scripted(vec![
            ScriptedFault {
                kind: FaultKind::Transfer,
                attempt: 1,
            },
            ScriptedFault {
                kind: FaultKind::Launch,
                attempt: 0,
            },
        ]));
        assert!(!inj.should_fault(FaultKind::Transfer)); // attempt 0
        assert!(inj.should_fault(FaultKind::Transfer)); // attempt 1
        assert!(!inj.should_fault(FaultKind::Transfer)); // attempt 2
        assert!(inj.should_fault(FaultKind::Launch)); // attempt 0
        assert!(!inj.should_fault(FaultKind::Alloc));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut a = FaultInjector::new(FaultConfig::uniform(11, 0.5));
        let mut b = FaultInjector::new(FaultConfig::uniform(11, 0.5));
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..100 {
            assert_eq!(
                ca.should_fault(FaultKind::Alloc),
                cb.should_fault(FaultKind::Alloc)
            );
        }
        // The child carries the rates but not the script.
        let mut parent = FaultInjector::new(FaultConfig {
            script: vec![ScriptedFault {
                kind: FaultKind::Transfer,
                attempt: 0,
            }],
            ..FaultConfig::default()
        });
        let mut child = parent.split();
        assert!(!child.should_fault(FaultKind::Transfer));
        assert!(parent.should_fault(FaultKind::Transfer));
    }
}
