//! The Xentry shim: the light-weight layer between hypervisor and VMs
//! (§IV).
//!
//! "Xentry functions as an interface between the hypervisor and other
//! domains. It intercepts all VM exits to prepare for data collection by
//! instructing performance counters, and then allows original hypervisor
//! execution to continue. It enables VM transition detection at every VM
//! entry." The shim implements [`xen_like::Monitor`], so plugging it into
//! the platform is exactly Xen-with-Xentry; the `NullMonitor` platform is
//! unmodified Xen.

use crate::detector::VmTransitionDetector;
use crate::features::FeatureVec;
use crate::runtime::{classify_exception, Detection, ExceptionClass, Technique};
use mltree::Label;
use serde::{Deserialize, Serialize};
use sim_machine::machine::vmcs;
use sim_machine::{CpuId, Exception, ExitReason, Machine};
use xen_like::{Monitor, Verdict};

/// Cycle costs of the shim's own work, charged to the CPU so overhead is
/// measured rather than asserted. Defaults reflect MSR-access costs on the
/// paper's Nehalem-era Xeon.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ShimCosts {
    /// Base interception cost per VM exit and per VM entry edge.
    pub intercept: u64,
    /// Programming the four PMC events at VM exit (WRMSRs).
    pub pmc_program: u64,
    /// Reading the counters at VM entry (RDMSRs).
    pub pmc_read: u64,
    /// Per-tree-node comparison cost during classification.
    pub classify_per_node: u64,
    /// Copying the critical hypervisor data at VM exit for recovery
    /// support (the paper measures ~1,900 ns ≈ 4,047 cycles at 2.13 GHz).
    pub state_copy: u64,
}

impl Default for ShimCosts {
    fn default() -> ShimCosts {
        ShimCosts {
            intercept: 60,
            pmc_program: 900, // 8 WRMSRs (4 event selects + 4 counter resets)
            pmc_read: 300,    // 4 RDPMCs + stores
            classify_per_node: 4,
            state_copy: 4047, // the paper's measured 1,900 ns at 2.13 GHz
        }
    }
}

/// Which parts of the framework are active.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct XentryConfig {
    /// Runtime detection: fatal-exception parsing + assertion monitoring.
    pub runtime_detection: bool,
    /// VM transition detection: PMC collection + classification at entry.
    pub vm_transition_detection: bool,
    /// Recovery support: copy critical state at every VM exit and model
    /// restore + re-execution on positive detections (Fig. 11).
    pub recovery_support: bool,
    /// When true, a positive VM-transition verdict charges recovery cost
    /// and lets execution continue (fault-free overhead experiments);
    /// when false it reports `Verdict::Incorrect` and stops the activation
    /// (fault-injection campaigns).
    pub continue_after_positive: bool,
    /// Shim cost model.
    pub costs: ShimCosts,
}

impl XentryConfig {
    /// Full framework, detection mode (fault-injection campaigns).
    pub fn detection() -> XentryConfig {
        XentryConfig {
            runtime_detection: true,
            vm_transition_detection: true,
            recovery_support: false,
            continue_after_positive: false,
            costs: ShimCosts::default(),
        }
    }

    /// Full framework, overhead-measurement mode (fault-free runs).
    pub fn overhead() -> XentryConfig {
        XentryConfig {
            continue_after_positive: true,
            ..XentryConfig::detection()
        }
    }

    /// Runtime detection only (the shaded bars of Fig. 7).
    pub fn runtime_only() -> XentryConfig {
        XentryConfig {
            vm_transition_detection: false,
            continue_after_positive: true,
            ..XentryConfig::detection()
        }
    }

    /// Overhead mode plus recovery support (Fig. 11).
    pub fn with_recovery() -> XentryConfig {
        XentryConfig {
            recovery_support: true,
            ..XentryConfig::overhead()
        }
    }
}

/// The Xentry framework state.
#[derive(Debug, Clone)]
pub struct Xentry {
    pub config: XentryConfig,
    /// Deployed VM-transition model (None while collecting training data).
    pub detector: Option<VmTransitionDetector>,
    /// Positive detections, in order.
    pub detections: Vec<Detection>,
    /// Feature vectors of every completed hypervisor execution (drained by
    /// training-data collectors).
    pub trace: Vec<FeatureVec>,
    /// Whether to keep `trace` (costs memory on long runs).
    pub keep_trace: bool,
    /// Set by the fault-injection harness: dynamic instruction count at
    /// error activation, for latency measurement.
    pub injection_mark: Option<u64>,
    /// Cycles the shim added to the machine (overhead accounting).
    pub added_cycles: u64,
    /// Cycles spent on recovery for (false or true) positives.
    pub recovery_cycles: u64,
    /// Number of VM entries classified.
    pub classified: u64,
    /// Number of positive VM-transition verdicts.
    pub positives: u64,
    handler_start_cycles: u64,
}

impl Xentry {
    /// Build the shim.
    pub fn new(config: XentryConfig, detector: Option<VmTransitionDetector>) -> Xentry {
        Xentry {
            config,
            detector,
            detections: Vec::new(),
            trace: Vec::new(),
            keep_trace: false,
            injection_mark: None,
            added_cycles: 0,
            recovery_cycles: 0,
            classified: 0,
            positives: 0,
            handler_start_cycles: 0,
        }
    }

    /// Shim collecting features only (training-data gathering).
    pub fn collector() -> Xentry {
        let mut x = Xentry::new(XentryConfig::overhead(), None);
        x.keep_trace = true;
        x
    }

    /// The feature vector of the most recent hypervisor execution.
    pub fn last_features(&self) -> Option<FeatureVec> {
        self.trace.last().copied()
    }

    fn charge(&mut self, m: &mut Machine, cpu: CpuId, cycles: u64) {
        m.cpu_mut(cpu).cycles += cycles;
        self.added_cycles += cycles;
    }

    fn record_detection(&mut self, m: &Machine, cpu: CpuId, technique: Technique, detail: String) {
        let at = m.cpu(cpu).insns_retired;
        let latency = self.injection_mark.map(|mark| at.saturating_sub(mark));
        self.detections.push(Detection {
            technique,
            at_insns: at,
            latency,
            detail,
        });
    }

    /// Whether any detection fired since the last reset.
    pub fn detected(&self) -> bool {
        !self.detections.is_empty()
    }
}

impl Monitor for Xentry {
    fn on_vm_exit(&mut self, m: &mut Machine, cpu: CpuId, _reason: ExitReason) {
        let mut cost = self.config.costs.intercept;
        if self.config.vm_transition_detection {
            cost += self.config.costs.pmc_program;
            m.cpu_mut(cpu).perf.start();
        }
        if self.config.recovery_support {
            cost += self.config.costs.state_copy;
        }
        self.handler_start_cycles = m.cpu(cpu).cycles;
        self.charge(m, cpu, cost);
    }

    fn on_vm_entry(&mut self, m: &mut Machine, cpu: CpuId) -> Verdict {
        let mut cost = self.config.costs.intercept;
        let mut verdict = Verdict::Pass;
        // The boot path VM-enters without a preceding VM exit; the PMU is
        // not running then and there is nothing to classify.
        if self.config.vm_transition_detection && m.cpu(cpu).perf.enabled() {
            cost += self.config.costs.pmc_read;
            let sample = m.cpu_mut(cpu).perf.stop();
            // The exit reason comes from the VMCS block, exactly where the
            // shim reads it on real hardware.
            let vmer = m
                .mem
                .peek(m.config.vmcs_field(cpu, vmcs::EXIT_REASON))
                .expect("VMCS mapped") as u16;
            let features = FeatureVec::from_sample(vmer, sample);
            if self.keep_trace {
                self.trace.push(features);
            } else {
                self.trace.clear();
                self.trace.push(features);
            }
            if let Some(det) = &self.detector {
                self.classified += 1;
                let (label, nodes) = det.classify_with_cost(&features);
                cost += nodes as u64 * self.config.costs.classify_per_node;
                if label == Label::Incorrect {
                    self.positives += 1;
                    self.record_detection(
                        m,
                        cpu,
                        Technique::VmTransition,
                        format!("vmer={vmer} rt={} wm={}", features.rt, features.wm),
                    );
                    if self.config.continue_after_positive {
                        // Recovery model: restore the critical state copied
                        // at VM exit and re-execute the handler.
                        let handler_cycles =
                            m.cpu(cpu).cycles.saturating_sub(self.handler_start_cycles);
                        let rec = self.config.costs.state_copy + handler_cycles;
                        if self.config.recovery_support {
                            self.recovery_cycles += rec;
                            self.charge(m, cpu, rec);
                        }
                    } else {
                        verdict = Verdict::Incorrect;
                    }
                }
            }
        }
        self.charge(m, cpu, cost);
        verdict
    }

    fn on_host_exception(&mut self, m: &mut Machine, cpu: CpuId, e: Exception) {
        if !self.config.runtime_detection {
            return;
        }
        if classify_exception(&e) == ExceptionClass::Fatal {
            self.record_detection(m, cpu, Technique::HwException, e.to_string());
        }
    }

    fn on_assert_fail(&mut self, m: &mut Machine, cpu: CpuId, id: u16) {
        if !self.config.runtime_detection {
            return;
        }
        let name = xen_like::assert_ids::name(id);
        self.record_detection(
            m,
            cpu,
            Technique::SwAssertion,
            format!("assert {id} ({name})"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_sim::{load_workload, profile, Benchmark};
    use sim_machine::VirtMode;
    use xen_like::{DomainSpec, Platform, Topology};

    fn platform() -> Platform {
        let topo = Topology {
            nr_cpus: 1,
            domains: vec![DomainSpec { nr_vcpus: 1 }],
            virt_mode: VirtMode::Para,
            seed: 21,
            cycle_model: Default::default(),
        };
        let (mut p, _) = Platform::new(topo);
        let prof = profile(Benchmark::Freqmine, VirtMode::Para).scaled(8);
        load_workload(&mut p.machine, 0, &prof);
        p
    }

    #[test]
    fn collector_gathers_features_per_activation() {
        let mut plat = platform();
        let mut shim = Xentry::collector();
        plat.boot(0, &mut shim);
        let acts = plat.run(0, 200, &mut shim);
        assert_eq!(acts.len(), 200);
        assert_eq!(shim.trace.len(), 200, "one feature vector per activation");
        // Feature vectors reflect real handler work.
        assert!(shim.trace.iter().all(|f| f.rt > 0));
        assert!(shim.trace.iter().any(|f| f.wm > 0));
        // Different exit reasons appear.
        let mut vmers: Vec<u16> = shim.trace.iter().map(|f| f.vmer).collect();
        vmers.sort_unstable();
        vmers.dedup();
        assert!(vmers.len() >= 4, "expected diverse exits, got {vmers:?}");
    }

    #[test]
    fn features_differ_by_exit_reason() {
        let mut plat = platform();
        let mut shim = Xentry::collector();
        plat.boot(0, &mut shim);
        plat.run(0, 500, &mut shim);
        // xen_version (17) is much shorter than event_channel_op (32).
        let rt_of = |vmer: u16| -> Vec<u64> {
            shim.trace
                .iter()
                .filter(|f| f.vmer == vmer)
                .map(|f| f.rt)
                .collect()
        };
        let v17 = rt_of(17);
        let v32 = rt_of(32);
        assert!(!v17.is_empty() && !v32.is_empty());
        let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            avg(&v32) > avg(&v17),
            "event-channel ops ({}) should out-work xen_version ({})",
            avg(&v32),
            avg(&v17)
        );
    }

    #[test]
    fn shim_charges_overhead_cycles() {
        let mut plat = platform();
        let mut shim = Xentry::new(XentryConfig::overhead(), None);
        plat.boot(0, &mut shim);
        plat.run(0, 100, &mut shim);
        // Roughly (intercept*2 + pmc_program + pmc_read) per activation.
        let costs = ShimCosts::default();
        let expect = (2 * costs.intercept + costs.pmc_program + costs.pmc_read) as f64;
        let per_act = shim.added_cycles as f64 / 101.0;
        assert!(
            per_act >= 0.8 * expect && per_act <= 1.3 * expect,
            "per-activation cost {per_act}, expected about {expect}"
        );
    }

    #[test]
    fn runtime_only_config_skips_pmcs() {
        let mut plat = platform();
        let mut shim = Xentry::new(XentryConfig::runtime_only(), None);
        plat.boot(0, &mut shim);
        plat.run(0, 100, &mut shim);
        let per_act = shim.added_cycles as f64 / 101.0;
        let ceiling = (2 * ShimCosts::default().intercept) as f64 * 1.2;
        assert!(
            per_act <= ceiling,
            "runtime-only cost {per_act} > {ceiling}"
        );
        assert!(
            shim.trace.is_empty(),
            "no feature collection without transition detection"
        );
    }

    #[test]
    fn recovery_support_charges_copy_per_exit() {
        let mut plat = platform();
        let mut shim = Xentry::new(XentryConfig::with_recovery(), None);
        plat.boot(0, &mut shim);
        plat.run(0, 50, &mut shim);
        let per_act = shim.added_cycles as f64 / 51.0;
        assert!(per_act >= 4000.0, "state copy missing: {per_act}");
    }

    #[test]
    fn assertion_detection_is_recorded() {
        // Corrupt the scheduler's idle-VCPU pointer so the Listing-2
        // assertion fires on the next idle transition.
        let mut plat = platform();
        let mut shim = Xentry::new(XentryConfig::detection(), None);
        plat.boot(0, &mut shim);
        // Empty the run queue and corrupt the idle-VCPU pointer, then force
        // a scheduler pass: the idle path's Listing-2 assertion must fire.
        use xen_like::layout as lay;
        let pa = lay::pcpu_addr(0);
        plat.machine
            .mem
            .poke(pa + lay::pcpu::IDLE_VCPU * 8, lay::vcpu_addr(0)) // not an idle vcpu
            .unwrap();
        plat.machine
            .mem
            .poke(lay::runq_addr(0) + lay::runq::COUNT * 8, 0)
            .unwrap();
        plat.machine
            .mem
            .poke(pa + lay::pcpu::SOFTIRQ_PENDING * 8, lay::softirq::SCHED)
            .unwrap();
        let act = plat.run_activation(0, &mut shim);
        assert!(
            !act.outcome.is_healthy(),
            "assertion should stop the activation"
        );
        assert!(
            shim.detections
                .iter()
                .any(|d| d.technique == Technique::SwAssertion),
            "expected an assertion detection, got {:?}",
            shim.detections
        );
    }

    #[test]
    fn hw_exception_detection_with_latency() {
        let mut plat = platform();
        let mut shim = Xentry::new(XentryConfig::detection(), None);
        plat.boot(0, &mut shim);
        // Run until inside... simulate an injection: corrupt RIP mid-host.
        // Simplest deterministic route: point a register used as a pointer
        // at unmapped memory right before an activation and mark the
        // injection.
        plat.run(0, 5, &mut shim);
        shim.injection_mark = Some(plat.machine.cpu(0).insns_retired);
        // Force a host-mode fatal exception artificially.
        let e = Exception::at(sim_machine::Vector::InvalidOpcode, 0xbad0);
        let mcpu = plat.machine.cpu(0).insns_retired;
        shim.on_host_exception(&mut plat.machine, 0, e);
        assert_eq!(shim.detections.len(), 1);
        let d = &shim.detections[0];
        assert_eq!(d.technique, Technique::HwException);
        assert_eq!(d.at_insns, mcpu);
        assert_eq!(d.latency, Some(0));
    }
}
