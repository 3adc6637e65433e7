//! Campaign aggregation: the numbers behind Fig. 8 (overall coverage by
//! technique), Fig. 9 (long-latency coverage by consequence), Fig. 10
//! (detection-latency CDF) and Table II (undetected-fault breakdown).

use crate::injection::InjectionRecord;
use crate::outcome::{Consequence, FaultOutcome, UndetectedCategory};
use serde::{Deserialize, Serialize};
use xentry::Technique;

/// Fig. 8 row: detection breakdown over *manifested* faults.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CoverageBreakdown {
    pub manifested: usize,
    pub hw_exception: usize,
    pub sw_assertion: usize,
    pub vm_transition: usize,
    pub undetected: usize,
}

impl CoverageBreakdown {
    /// Overall detection coverage.
    pub fn coverage(&self) -> f64 {
        if self.manifested == 0 {
            return 0.0;
        }
        (self.manifested - self.undetected) as f64 / self.manifested as f64
    }

    /// Fraction detected by a given technique.
    pub fn fraction(&self, n: usize) -> f64 {
        if self.manifested == 0 {
            return 0.0;
        }
        n as f64 / self.manifested as f64
    }
}

/// Compute the Fig. 8 breakdown.
pub fn coverage_breakdown(records: &[InjectionRecord]) -> CoverageBreakdown {
    let mut b = CoverageBreakdown::default();
    for r in records {
        if !r.outcome.manifested() {
            continue;
        }
        b.manifested += 1;
        match &r.outcome {
            FaultOutcome::Detected { technique, .. } => match technique {
                Technique::HwException => b.hw_exception += 1,
                Technique::SwAssertion => b.sw_assertion += 1,
                Technique::VmTransition => b.vm_transition += 1,
            },
            FaultOutcome::Undetected { .. } => b.undetected += 1,
            _ => unreachable!("manifested() excluded the rest"),
        }
    }
    b
}

/// Fig. 9 row: detection coverage of long-latency errors, grouped by the
/// consequence they would have had.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ConsequenceRow {
    pub total: usize,
    pub detected: usize,
}

impl ConsequenceRow {
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.detected as f64 / self.total as f64
    }
}

/// Fig. 9 table over the four long-latency consequence classes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LongLatencyCoverage {
    pub app_sdc: ConsequenceRow,
    pub app_crash: ConsequenceRow,
    pub one_vm: ConsequenceRow,
    pub all_vm: ConsequenceRow,
}

/// Compute Fig. 9 from records. A record participates when its consequence
/// class is known and long-latency (the fault propagated past VM entry in
/// the reference run).
pub fn long_latency_coverage(records: &[InjectionRecord]) -> LongLatencyCoverage {
    let mut out = LongLatencyCoverage::default();
    for r in records {
        let (consequence, detected) = match &r.outcome {
            FaultOutcome::Detected {
                consequence: Some(c),
                ..
            } => (*c, true),
            FaultOutcome::Undetected { consequence, .. } => (*consequence, false),
            _ => continue,
        };
        let row = match consequence {
            Consequence::AppSdc => &mut out.app_sdc,
            Consequence::AppCrash => &mut out.app_crash,
            Consequence::OneVmFailure => &mut out.one_vm,
            Consequence::AllVmFailure => &mut out.all_vm,
            Consequence::HypervisorCrash => continue, // short latency
        };
        row.total += 1;
        row.detected += detected as usize;
    }
    out
}

/// Detection latencies (instructions) grouped by technique — Fig. 10.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyData {
    pub hw_exception: Vec<u64>,
    pub sw_assertion: Vec<u64>,
    pub vm_transition: Vec<u64>,
}

impl LatencyData {
    /// CDF evaluation: fraction of latencies `<= x`.
    pub fn cdf(latencies: &[u64], x: u64) -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.iter().filter(|&&l| l <= x).count() as f64 / latencies.len() as f64
    }

    /// Percentile (0..=100).
    pub fn percentile(latencies: &[u64], p: f64) -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let mut v = latencies.to_vec();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p / 100.0).round() as usize;
        v[idx]
    }
}

/// Gather latency samples from detected records. With
/// `same_activation_only`, restrict to detections that fired before the
/// faulted activation's VM entry — the paper's Fig. 10 regime ("all these
/// faults are detected before starting VM executions").
pub fn latency_data_filtered(
    records: &[InjectionRecord],
    same_activation_only: bool,
) -> LatencyData {
    let mut d = LatencyData::default();
    for r in records {
        if let FaultOutcome::Detected {
            technique,
            latency,
            same_activation,
            ..
        } = &r.outcome
        {
            if same_activation_only && !same_activation {
                continue;
            }
            match technique {
                Technique::HwException => d.hw_exception.push(*latency),
                Technique::SwAssertion => d.sw_assertion.push(*latency),
                Technique::VmTransition => d.vm_transition.push(*latency),
            }
        }
    }
    d
}

/// All detection latencies (including late detections).
pub fn latency_data(records: &[InjectionRecord]) -> LatencyData {
    latency_data_filtered(records, false)
}

/// Table II: breakdown of undetected faults by corruption site.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UndetectedBreakdown {
    pub total: usize,
    pub mis_classified: usize,
    pub stack_values: usize,
    pub time_values: usize,
    pub other_values: usize,
}

impl UndetectedBreakdown {
    pub fn fraction(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        n as f64 / self.total as f64
    }
}

/// Compute Table II.
pub fn undetected_breakdown(records: &[InjectionRecord]) -> UndetectedBreakdown {
    let mut b = UndetectedBreakdown::default();
    for r in records {
        if let FaultOutcome::Undetected { category, .. } = &r.outcome {
            b.total += 1;
            match category {
                UndetectedCategory::MisClassified => b.mis_classified += 1,
                UndetectedCategory::StackValues => b.stack_values += 1,
                UndetectedCategory::TimeValues => b.time_values += 1,
                UndetectedCategory::OtherValues => b.other_values += 1,
            }
        }
    }
    b
}

/// Per-flip-target vulnerability row: how often flips of one register
/// manifest, and how often they escape detection — the architectural
/// vulnerability analysis classic fault-injection studies report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TargetRow {
    pub target: String,
    pub injections: usize,
    pub manifested: usize,
    pub undetected: usize,
}

impl TargetRow {
    /// Fraction of injections into this target that manifested.
    pub fn manifestation_rate(&self) -> f64 {
        if self.injections == 0 {
            return 0.0;
        }
        self.manifested as f64 / self.injections as f64
    }

    /// Fraction of manifested faults that escaped detection.
    pub fn escape_rate(&self) -> f64 {
        if self.manifested == 0 {
            return 0.0;
        }
        self.undetected as f64 / self.manifested as f64
    }
}

/// Aggregate records per flip target (RIP, RSP, each GPR, RFLAGS), sorted
/// by manifestation rate.
pub fn target_breakdown(records: &[InjectionRecord]) -> Vec<TargetRow> {
    let mut map: std::collections::BTreeMap<String, TargetRow> = Default::default();
    for r in records {
        let row = map.entry(r.target.name()).or_insert_with(|| TargetRow {
            target: r.target.name(),
            ..Default::default()
        });
        row.injections += 1;
        if r.outcome.manifested() {
            row.manifested += 1;
        }
        if matches!(r.outcome, FaultOutcome::Undetected { .. }) {
            row.undetected += 1;
        }
    }
    let mut rows: Vec<TargetRow> = map.into_values().collect();
    rows.sort_by(|a, b| {
        b.manifestation_rate()
            .partial_cmp(&a.manifestation_rate())
            .unwrap()
    });
    rows
}

/// One cell of the per-bit vulnerability map: outcome counts for every
/// injection that struck a given (target, bit-position) pair.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct VulnCell {
    /// Caught by any technique before the consequence landed.
    pub detected: usize,
    /// Escaped detection and corrupted application output (SDC).
    pub silent: usize,
    /// Escaped detection and crashed an app, a VM or the hypervisor.
    pub crash: usize,
    /// Never manifested (masked in the handler or at VM entry).
    pub benign: usize,
}

impl VulnCell {
    fn count(&mut self, outcome: &FaultOutcome) {
        match outcome {
            FaultOutcome::Detected { .. } => self.detected += 1,
            FaultOutcome::Undetected {
                consequence: Consequence::AppSdc,
                ..
            } => self.silent += 1,
            FaultOutcome::Undetected { .. } => self.crash += 1,
            FaultOutcome::Benign | FaultOutcome::MaskedAfterEntry => self.benign += 1,
        }
    }

    /// Injections aggregated into this cell.
    pub fn total(&self) -> usize {
        self.detected + self.silent + self.crash + self.benign
    }
}

/// Per-bit vulnerability map: `target name -> bit position -> outcome
/// counts`. BTreeMaps keep iteration (and the serialized figure) in a
/// stable order regardless of how the records were produced.
pub type VulnMap = std::collections::BTreeMap<String, std::collections::BTreeMap<u8, VulnCell>>;

/// Build a vulnerability map from `(target, bit, outcome)` triples.
pub fn vulnerability_map<'a>(
    cells: impl IntoIterator<Item = (String, u8, &'a FaultOutcome)>,
) -> VulnMap {
    let mut map = VulnMap::new();
    for (target, bit, outcome) in cells {
        map.entry(target)
            .or_default()
            .entry(bit)
            .or_default()
            .count(outcome);
    }
    map
}

/// Vulnerability map of a single-bit register campaign.
pub fn vulnmap_from_records(records: &[InjectionRecord]) -> VulnMap {
    vulnerability_map(records.iter().map(|r| (r.target.name(), r.bit, &r.outcome)))
}

/// Vulnerability map of an extended-model campaign ([`crate::ModelRecord`]):
/// bursts bucket under their anchor bit, PTE strikes under the struck PTE
/// bit, PMC strikes under the counter bit.
pub fn vulnmap_from_model_records(records: &[crate::ModelRecord]) -> VulnMap {
    vulnerability_map(
        records
            .iter()
            .map(|r| (r.spec.target_label(), r.spec.bit(), &r.outcome)),
    )
}

/// Merge vulnerability maps (e.g. the register map with a model map, or
/// maps from different workloads) cell-wise.
pub fn merge_vulnmaps(maps: impl IntoIterator<Item = VulnMap>) -> VulnMap {
    let mut out = VulnMap::new();
    for map in maps {
        for (target, bits) in map {
            let dst = out.entry(target).or_default();
            for (bit, cell) in bits {
                let d = dst.entry(bit).or_default();
                d.detected += cell.detected;
                d.silent += cell.silent;
                d.crash += cell.crash;
                d.benign += cell.benign;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FaultOutcome;
    use sim_machine::cpu::FlipTarget;
    use sim_machine::Reg;
    use xentry::FeatureVec;

    fn rec(outcome: FaultOutcome) -> InjectionRecord {
        let f = FeatureVec {
            vmer: 1,
            rt: 10,
            br: 2,
            rm: 3,
            wm: 1,
        };
        InjectionRecord {
            vmer: 1,
            target: FlipTarget::Gpr(Reg::Rax),
            bit: 0,
            at_step: 0,
            outcome,
            features: Some(f),
            golden_features: f,
        }
    }

    #[test]
    fn coverage_breakdown_partitions() {
        let records = vec![
            rec(FaultOutcome::Benign),
            rec(FaultOutcome::Detected {
                technique: Technique::HwException,
                latency: 10,
                same_activation: true,
                consequence: None,
            }),
            rec(FaultOutcome::Detected {
                technique: Technique::SwAssertion,
                latency: 20,
                same_activation: true,
                consequence: None,
            }),
            rec(FaultOutcome::Detected {
                technique: Technique::VmTransition,
                latency: 300,
                same_activation: true,
                consequence: Some(Consequence::AppSdc),
            }),
            rec(FaultOutcome::Undetected {
                consequence: Consequence::AppSdc,
                category: UndetectedCategory::TimeValues,
            }),
        ];
        let b = coverage_breakdown(&records);
        assert_eq!(b.manifested, 4);
        assert_eq!(b.hw_exception, 1);
        assert_eq!(b.sw_assertion, 1);
        assert_eq!(b.vm_transition, 1);
        assert_eq!(b.undetected, 1);
        assert!((b.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn long_latency_rows_count_detected_and_not() {
        let records = vec![
            rec(FaultOutcome::Detected {
                technique: Technique::VmTransition,
                latency: 100,
                same_activation: true,
                consequence: Some(Consequence::AppSdc),
            }),
            rec(FaultOutcome::Undetected {
                consequence: Consequence::AppSdc,
                category: UndetectedCategory::TimeValues,
            }),
            rec(FaultOutcome::Detected {
                technique: Technique::HwException,
                latency: 5,
                same_activation: true,
                consequence: Some(Consequence::HypervisorCrash),
            }),
        ];
        let cov = long_latency_coverage(&records);
        assert_eq!(cov.app_sdc.total, 2);
        assert_eq!(cov.app_sdc.detected, 1);
        assert!((cov.app_sdc.rate() - 0.5).abs() < 1e-12);
        // HypervisorCrash is short-latency: excluded.
        assert_eq!(cov.app_crash.total + cov.one_vm.total + cov.all_vm.total, 0);
    }

    #[test]
    fn latency_cdf_and_percentiles() {
        let lat = vec![10, 20, 30, 40, 1000];
        assert!((LatencyData::cdf(&lat, 30) - 0.6).abs() < 1e-12);
        assert_eq!(LatencyData::percentile(&lat, 50.0), 30);
        assert_eq!(LatencyData::percentile(&lat, 100.0), 1000);
        assert_eq!(LatencyData::percentile(&[], 50.0), 0);
    }

    #[test]
    fn target_breakdown_counts_per_register() {
        use sim_machine::cpu::FlipTarget as FT;
        let mut records = vec![rec(FaultOutcome::Benign); 3];
        records[0].target = FT::Rip;
        records[0].outcome = FaultOutcome::Detected {
            technique: Technique::HwException,
            latency: 1,
            same_activation: true,
            consequence: None,
        };
        records[1].target = FT::Rip;
        records[2].target = FT::Gpr(Reg::Rbx);
        records[2].outcome = FaultOutcome::Undetected {
            consequence: Consequence::AppSdc,
            category: UndetectedCategory::OtherValues,
        };
        let rows = target_breakdown(&records);
        let rip = rows.iter().find(|r| r.target == "rip").unwrap();
        assert_eq!(rip.injections, 2);
        assert_eq!(rip.manifested, 1);
        assert_eq!(rip.undetected, 0);
        let rbx = rows.iter().find(|r| r.target == "rbx").unwrap();
        assert_eq!(rbx.escape_rate(), 1.0);
        // Sorted by manifestation rate: rbx (100%) before rip (50%).
        assert_eq!(rows[0].target, "rbx");
    }

    #[test]
    fn undetected_breakdown_sums() {
        let records = vec![
            rec(FaultOutcome::Undetected {
                consequence: Consequence::AppSdc,
                category: UndetectedCategory::TimeValues,
            }),
            rec(FaultOutcome::Undetected {
                consequence: Consequence::AppCrash,
                category: UndetectedCategory::StackValues,
            }),
            rec(FaultOutcome::Undetected {
                consequence: Consequence::AppSdc,
                category: UndetectedCategory::MisClassified,
            }),
            rec(FaultOutcome::Benign),
        ];
        let b = undetected_breakdown(&records);
        assert_eq!(b.total, 3);
        assert_eq!(b.time_values, 1);
        assert_eq!(b.stack_values, 1);
        assert_eq!(b.mis_classified, 1);
        assert_eq!(b.other_values, 0);
    }

    #[test]
    fn vulnmap_buckets_by_target_and_bit() {
        let mut records = vec![rec(FaultOutcome::Benign); 4];
        records[0].bit = 7;
        records[0].outcome = FaultOutcome::Detected {
            technique: Technique::HwException,
            latency: 1,
            same_activation: true,
            consequence: None,
        };
        records[1].bit = 7;
        records[1].outcome = FaultOutcome::Undetected {
            consequence: Consequence::AppSdc,
            category: UndetectedCategory::OtherValues,
        };
        records[2].bit = 7;
        records[2].outcome = FaultOutcome::Undetected {
            consequence: Consequence::HypervisorCrash,
            category: UndetectedCategory::OtherValues,
        };
        records[3].bit = 3;
        records[3].outcome = FaultOutcome::MaskedAfterEntry;
        let map = vulnmap_from_records(&records);
        let rax = &map["rax"];
        let hot = rax[&7];
        assert_eq!(
            (hot.detected, hot.silent, hot.crash, hot.benign),
            (1, 1, 1, 0)
        );
        assert_eq!(hot.total(), 3);
        // MaskedAfterEntry counts as benign, under its own bit.
        assert_eq!(rax[&3].benign, 1);
    }

    #[test]
    fn vulnmaps_merge_cell_wise() {
        let a = vulnerability_map(vec![("rip".to_string(), 0u8, &FaultOutcome::Benign)]);
        let b = vulnerability_map(vec![
            (
                "rip".to_string(),
                0u8,
                &FaultOutcome::Detected {
                    technique: Technique::HwException,
                    latency: 1,
                    same_activation: true,
                    consequence: None,
                },
            ),
            ("pte.present".to_string(), 0u8, &FaultOutcome::Benign),
        ]);
        let merged = merge_vulnmaps(vec![a, b]);
        assert_eq!(merged["rip"][&0].benign, 1);
        assert_eq!(merged["rip"][&0].detected, 1);
        assert_eq!(merged["pte.present"][&0].benign, 1);
        assert_eq!(merged.len(), 2);
    }
}
