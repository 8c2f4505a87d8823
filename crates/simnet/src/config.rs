use std::time::Duration;

/// Latency configuration of a network link.
///
/// The paper's testbed is a 10 Gbps datacenter interconnect; §9.3 measures an
/// order-request latency of ≈110 µs dominated by the RTT, so the default
/// one-way delay is 25 µs with a small jitter. Tests that want determinism
/// use [`LinkConfig::instant`] (zero delay, zero jitter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkConfig {
    /// Fixed one-way propagation delay.
    pub delay: Duration,
    /// Uniform jitter added on top of `delay` (0..=jitter).
    pub jitter: Duration,
    /// Sender-side serialization cost per message: the i-th message of a
    /// broadcast leaves the NIC `i * serialize` later (models wire
    /// serialization of replicated appends; relevant to Fig 8's
    /// replication-factor experiment).
    pub serialize: Duration,
}

impl LinkConfig {
    /// A link with no delay at all; messages are handed to the destination
    /// inbox synchronously. Deterministic, used by most unit tests.
    pub fn instant() -> Self {
        LinkConfig {
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            serialize: Duration::ZERO,
        }
    }

    /// Datacenter-class link modelled after the paper's 10 Gbps testbed:
    /// 25 µs one-way delay, 5 µs jitter (≈50–60 µs RTT).
    pub fn datacenter() -> Self {
        LinkConfig {
            delay: Duration::from_micros(25),
            jitter: Duration::from_micros(5),
            serialize: Duration::from_micros(2),
        }
    }

    /// A deliberately slow link (used to provoke the Δ-timeout paths of the
    /// failure detectors).
    pub fn slow(delay: Duration) -> Self {
        LinkConfig {
            delay,
            jitter: Duration::ZERO,
            serialize: Duration::ZERO,
        }
    }

    /// True when messages can bypass the delay scheduler entirely.
    pub(crate) fn is_instant(&self) -> bool {
        self.delay.is_zero() && self.jitter.is_zero()
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::instant()
    }
}

/// Whole-network configuration.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    /// Default link characteristics for every (src, dst) pair.
    pub link: LinkConfig,
    /// Seed for the jitter RNG; `None` seeds from entropy.
    pub seed: Option<u64>,
}

impl NetConfig {
    /// Deterministic, zero-latency network (unit tests).
    pub fn instant() -> Self {
        NetConfig {
            link: LinkConfig::instant(),
            seed: Some(0),
        }
    }

    /// Datacenter-class network with a fixed seed for reproducible jitter.
    pub fn datacenter() -> Self {
        NetConfig {
            link: LinkConfig::datacenter(),
            seed: Some(0x0F1E_7106),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_is_instant() {
        assert!(LinkConfig::instant().is_instant());
        assert!(!LinkConfig::datacenter().is_instant());
        assert!(!LinkConfig::slow(Duration::from_millis(1)).is_instant());
    }

    #[test]
    fn default_is_instant() {
        assert_eq!(LinkConfig::default(), LinkConfig::instant());
    }
}
