//! Fault-outcome taxonomy (paper §II-A, §V-D/E, Table II).

use serde::{Deserialize, Serialize};
use xentry::Technique;

/// What would happen to the system if the fault were *not* detected —
/// the long-latency consequence classes of Fig. 9, plus the short-latency
/// (within-host-mode) classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Consequence {
    /// Fault propagates to the application, which finishes "successfully"
    /// with a wrong result — silent data corruption, the paper's most
    /// dangerous class.
    AppSdc,
    /// Fault propagates to the application and kills it (unexpected traps).
    AppCrash,
    /// One guest VM hangs or crashes.
    OneVmFailure,
    /// The control domain or the hypervisor's global state is corrupted:
    /// every VM is affected.
    AllVmFailure,
    /// The hypervisor itself crashes or hangs before VM entry
    /// (short-latency error, paper Path 1).
    HypervisorCrash,
}

/// Corruption-site categories of undetected faults (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UndetectedCategory {
    /// The execution's counter footprint differed from the fault-free run —
    /// the VM-transition detector saw an anomaly and still said "correct".
    MisClassified,
    /// Corruption confined to values saved to / restored from stacks and
    /// register save areas.
    StackValues,
    /// Corruption confined to time values (shared-info time protocol, TSC
    /// stamps, timer deadlines, guest time results) — unverifiable by
    /// naive duplication since replicated `rdtsc` reads legitimately differ.
    TimeValues,
    /// Everything else.
    OtherValues,
}

/// Final classification of one injection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// No architectural effect: the flipped bit was dead or overwritten
    /// (non-activated), or the difference washed out before mattering.
    Benign,
    /// The fault changed state at VM entry but the divergence disappeared
    /// within the observation window with no external effect.
    MaskedAfterEntry,
    /// Detected by the named technique.
    Detected {
        technique: Technique,
        /// Instructions between activation and detection.
        latency: u64,
        /// Detected within the faulted activation (before the guest
        /// resumed), as opposed to during a later activation.
        same_activation: bool,
        /// What the fault would have done if undetected (known only for
        /// faults that propagated past VM entry in the reference run).
        consequence: Option<Consequence>,
    },
    /// Undetected and harmful.
    Undetected {
        consequence: Consequence,
        category: UndetectedCategory,
    },
}

impl FaultOutcome {
    /// Did this fault manifest (cause a failure or data corruption)?
    /// These are the ~17,700 of 30,000 injections in the paper's Fig. 8
    /// denominator.
    pub fn manifested(&self) -> bool {
        !matches!(self, FaultOutcome::Benign | FaultOutcome::MaskedAfterEntry)
    }

    /// Was it detected?
    pub fn detected(&self) -> bool {
        matches!(self, FaultOutcome::Detected { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifested_excludes_benign() {
        assert!(!FaultOutcome::Benign.manifested());
        assert!(!FaultOutcome::MaskedAfterEntry.manifested());
        assert!(FaultOutcome::Detected {
            technique: Technique::HwException,
            latency: 5,
            same_activation: true,
            consequence: None
        }
        .manifested());
        assert!(FaultOutcome::Undetected {
            consequence: Consequence::AppSdc,
            category: UndetectedCategory::TimeValues
        }
        .manifested());
    }
}
