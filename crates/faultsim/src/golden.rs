//! Golden-run differencing: compare a fault-injected machine against the
//! fault-free reference, and attribute differences to corruption sites.
//!
//! This reproduces the paper's Simics trace analysis: a fault is *activated*
//! iff the architectural state diverges from the golden run, and the
//! locations of the divergence drive the Table-II breakdown (stack values /
//! time values / other).

use guest_sim::guest_addrs;
use sim_machine::{CpuId, Machine, Reg};
use xen_like::layout as lay;

/// Where a differing word lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffSite {
    /// A general-purpose register / RIP / RFLAGS.
    Register,
    /// VCPU save area (guest registers staged by the stubs) or a stack
    /// (host stack or guest stack neighbourhood).
    StackOrSaveArea,
    /// Time-related words: shared-info time protocol, TSC stamps, timer
    /// deadlines, VCPU time offsets, the guest's time-result area.
    TimeValue,
    /// Guest-visible result data (workload checksum).
    GuestResult,
    /// Other hypervisor data.
    HvData,
    /// Other guest memory.
    GuestMemory,
    /// The VMCS block.
    Vmcs,
    /// Device output stream diverged.
    Device,
}

/// A compact diff between two machines.
#[derive(Debug, Clone, Default)]
pub struct StateDiff {
    /// Differing memory words (address, golden, faulty), truncated.
    pub words: Vec<(u64, u64, u64)>,
    /// Sites of all differing words (not truncated).
    pub sites: Vec<DiffSite>,
    /// Registers that differ on the observed CPU.
    pub regs: Vec<String>,
    /// Whether the per-site noise counters diverged (the execution paths
    /// consumed different amounts of workload randomness — a control-flow
    /// change signal, but not architectural corruption by itself).
    pub noise_diverged: bool,
}

impl StateDiff {
    /// No architectural difference. Noise-counter divergence alone does not
    /// count: the noise source is simulation apparatus, not machine state.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.regs.is_empty()
    }

    /// True if every differing site is in `allowed`.
    pub fn only_sites(&self, allowed: &[DiffSite]) -> bool {
        !self.sites.is_empty() && self.sites.iter().all(|s| allowed.contains(s))
    }

    /// True if any differing site is in `set`.
    pub fn any_site(&self, set: &[DiffSite]) -> bool {
        self.sites.iter().any(|s| set.contains(s))
    }
}

/// Maximum recorded differing words (sites are still classified for all).
const MAX_RECORDED: usize = 128;

/// Compare the *structural invariants* of two machines: the dispatch table
/// and the configuration/pointer fields of every PCPU, VCPU and domain
/// descriptor. These words never change during normal operation, so they
/// can be compared across machines that are not activation-aligned —
/// exactly what the post-propagation consequence classification needs
/// (volatile accounting counters legitimately drift between two forward
/// runs and must not be compared there).
pub fn structural_corruption(golden: &Machine, faulty: &Machine, nr_doms: usize) -> bool {
    let differs = |addr: u64| golden.mem.peek(addr).ok() != faulty.mem.peek(addr).ok();
    for vmer in 0..sim_machine::ExitReason::VMER_COUNT {
        if differs(lay::dispatch_entry(vmer)) {
            return true;
        }
    }
    for cpu in 0..lay::MAX_PCPUS {
        let pa = lay::pcpu_addr(cpu);
        for field in [
            lay::pcpu::VMCS_PTR,
            lay::pcpu::RUNQ_PTR,
            lay::pcpu::IDLE_VCPU,
        ] {
            if differs(pa + field * 8) {
                return true;
            }
        }
    }
    for v in 0..lay::MAX_VCPUS {
        let va = lay::vcpu_addr(v);
        for field in [
            lay::vcpu::DOM_ID,
            lay::vcpu::VCPU_ID,
            lay::vcpu::IS_IDLE,
            lay::vcpu::DOM_PTR,
        ] {
            if differs(va + field * 8) {
                return true;
            }
        }
    }
    for d in 0..nr_doms {
        let da = lay::domain_addr(d);
        for field in [
            lay::domain::DOM_ID,
            lay::domain::NR_VCPUS,
            lay::domain::EVTCHN_PTR,
            lay::domain::GRANT_PTR,
            lay::domain::SHARED_PTR,
            lay::domain::MEM_BASE,
            lay::domain::MEM_SIZE,
            lay::domain::FIRST_VCPU,
            lay::domain::TRAP_HANDLER,
        ] {
            if differs(da + field * 8) {
                return true;
            }
        }
    }
    false
}

/// Classify the site of a differing address.
pub fn classify_site(addr: u64, nr_doms: usize) -> DiffSite {
    // Time-related hypervisor words.
    let g_wallclock = lay::global_addr(lay::global::WALLCLOCK);
    if addr == g_wallclock {
        return DiffSite::TimeValue;
    }
    for d in 0..nr_doms {
        let sh = lay::shared_addr(d);
        let time_lo = sh + lay::shared::WALLCLOCK * 8;
        let time_hi = sh + (lay::shared::VCPU_TIME + lay::MAX_VCPUS_PER_DOM as u64) * 8;
        if addr >= time_lo && addr < time_hi {
            return DiffSite::TimeValue;
        }
        let ga = guest_addrs(d);
        if addr == ga.time_result || addr == ga.time_result + 8 {
            return DiffSite::TimeValue;
        }
        if addr == ga.result {
            return DiffSite::GuestResult;
        }
    }
    // VCPU descriptors: save areas + time fields.
    let vbase = lay::vcpu::BASE;
    let vend = vbase + (lay::MAX_VCPUS as u64) * lay::vcpu::STRIDE * 8;
    if addr >= vbase && addr < vend {
        let off = (addr - vbase) % (lay::vcpu::STRIDE * 8) / 8;
        return match off {
            o if o < 18 => DiffSite::StackOrSaveArea, // GPRs + RIP + RFLAGS
            o if o == lay::vcpu::TIME_OFFSET || o == lay::vcpu::TIMER_DEADLINE => {
                DiffSite::TimeValue
            }
            _ => DiffSite::HvData,
        };
    }
    // Host stacks.
    if addr >= lay::HV_STACK_BASE
        && addr < lay::HV_STACK_BASE + lay::MAX_PCPUS as u64 * lay::HV_STACK_SIZE
    {
        return DiffSite::StackOrSaveArea;
    }
    // VMCS.
    if (lay::VMCS_BASE..lay::VMCS_BASE + 0x1000).contains(&addr) {
        return DiffSite::Vmcs;
    }
    // Remaining hypervisor data families.
    let (hv_lo, hv_hi) = lay::hv_data_span();
    if addr >= hv_lo && addr < hv_hi {
        return DiffSite::HvData;
    }
    // Guest windows: stack neighbourhood counts as stack, rest as memory.
    for d in 0..nr_doms {
        let win = lay::guest_window(d);
        if addr >= win && addr < win + lay::GUEST_STRIDE {
            let stack_top = lay::guest_stack_top(d);
            if addr + 0x4000 >= stack_top.saturating_sub(0x8000) && addr < stack_top {
                return DiffSite::StackOrSaveArea;
            }
            return DiffSite::GuestMemory;
        }
    }
    DiffSite::HvData
}

/// Diff two machines. `cpu` is the CPU under observation; cycle counters,
/// retired-instruction counters and PMU state are excluded (they are
/// measurement apparatus, not architectural state).
pub fn diff_machines(golden: &Machine, faulty: &Machine, cpu: CpuId, nr_doms: usize) -> StateDiff {
    let mut diff = StateDiff::default();

    let gc = golden.cpu(cpu);
    let fc = faulty.cpu(cpu);
    for r in Reg::ALL {
        if gc.get(r) != fc.get(r) {
            diff.regs.push(r.name().to_string());
        }
    }
    if gc.rip != fc.rip {
        diff.regs.push("rip".to_string());
    }
    if gc.rflags != fc.rflags {
        diff.regs.push("rflags".to_string());
    }

    // Pages the two machines still share (everything neither run wrote
    // since they forked) are skipped by identity.
    let regions = golden.mem.regions();
    golden.mem.for_each_diff(&faulty.mem, |ridx, widx, gw, fw| {
        let addr = regions[ridx].base + (widx as u64) * 8;
        diff.sites.push(classify_site(addr, nr_doms));
        if diff.words.len() < MAX_RECORDED {
            diff.words.push((addr, gw, fw));
        }
    });

    // Output-side device divergence matters (wrong data reached a device);
    // read-side sequence numbers are apparatus.
    if golden.devices.out_hash != faulty.devices.out_hash
        || golden.devices.out_count != faulty.devices.out_count
    {
        diff.sites.push(DiffSite::Device);
    }
    diff.noise_diverged = golden.noise != faulty.noise;
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use xen_like::{DomainSpec, Topology};

    fn machine() -> Machine {
        let topo = Topology {
            nr_cpus: 1,
            domains: vec![DomainSpec { nr_vcpus: 1 }, DomainSpec { nr_vcpus: 1 }],
            virt_mode: sim_machine::VirtMode::Para,
            seed: 1,
            cycle_model: Default::default(),
        };
        xen_like::build_machine(&topo).0
    }

    #[test]
    fn identical_machines_have_empty_diff() {
        let m = machine();
        let d = diff_machines(&m, &m.snapshot(), 0, 2);
        assert!(d.is_empty());
    }

    #[test]
    fn register_difference_is_reported() {
        let m = machine();
        let mut f = m.snapshot();
        f.cpu_mut(0).set(Reg::R9, 0xbad);
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.regs, vec!["r9".to_string()]);
        assert!(d.words.is_empty());
    }

    #[test]
    fn save_area_word_classified_as_stack() {
        let m = machine();
        let mut f = m.snapshot();
        let addr = lay::vcpu_addr(0) + 3 * 8; // saved RBX slot
        f.mem.poke(addr, 0x42).unwrap();
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.sites, vec![DiffSite::StackOrSaveArea]);
        assert_eq!(d.words.len(), 1);
    }

    #[test]
    fn shared_time_word_classified_as_time() {
        let m = machine();
        let mut f = m.snapshot();
        let addr = lay::shared_addr(1) + lay::shared::SYSTEM_TIME * 8;
        f.mem.poke(addr, 999).unwrap();
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.sites, vec![DiffSite::TimeValue]);
        assert!(d.only_sites(&[DiffSite::TimeValue]));
    }

    #[test]
    fn guest_checksum_word_classified_as_result() {
        let m = machine();
        let mut f = m.snapshot();
        f.mem.poke(guest_addrs(1).result, 7).unwrap();
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.sites, vec![DiffSite::GuestResult]);
    }

    #[test]
    fn vcpu_timer_deadline_is_time_value() {
        let m = machine();
        let mut f = m.snapshot();
        let addr = lay::vcpu_addr(4) + lay::vcpu::TIMER_DEADLINE * 8;
        f.mem.poke(addr, 123).unwrap();
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.sites, vec![DiffSite::TimeValue]);
    }

    #[test]
    fn host_stack_is_stack_site() {
        let m = machine();
        let mut f = m.snapshot();
        f.mem.poke(lay::HV_STACK_BASE + 0x100, 5).unwrap();
        let d = diff_machines(&m, &f, 0, 2);
        assert_eq!(d.sites, vec![DiffSite::StackOrSaveArea]);
    }

    /// The page-identity walk reports what a word-by-word walk over every
    /// mapped word reports, whether a page is still shared by the two
    /// machines, was copied but holds equal words again, or differs.
    #[test]
    fn memory_diff_matches_the_word_by_word_oracle() {
        let g = machine();
        let mut f = g.snapshot();
        let mut g = g;
        // Different on the faulty side, different on the golden side (its
        // own copy of that page), written and written back (unshared but
        // equal), both sides written to the same value, and a word next to
        // a region's end.
        f.mem.poke(lay::vcpu_addr(0) + 24, 0x42).unwrap();
        g.mem.poke(lay::HV_STACK_BASE + 0x100, 5).unwrap();
        f.mem.poke(guest_addrs(1).result, 7).unwrap();
        f.mem.poke(guest_addrs(1).result, 0).unwrap();
        f.mem.poke(lay::shared_addr(1), 9).unwrap();
        g.mem.poke(lay::shared_addr(1), 9).unwrap();
        let last = g.mem.region_by_name("hv.global").unwrap();
        f.mem.poke(last.base + last.len_bytes() - 8, 1).unwrap();

        let mut oracle = Vec::new();
        for r in g.mem.regions() {
            for addr in (r.base..r.base + r.len_bytes()).step_by(8) {
                let (gw, fw) = (g.mem.peek(addr).unwrap(), f.mem.peek(addr).unwrap());
                if gw != fw {
                    oracle.push((addr, gw, fw));
                }
            }
        }
        assert_eq!(oracle.len(), 3);
        let d = diff_machines(&g, &f, 0, 2);
        assert_eq!(d.words, oracle);
        assert_eq!(d.sites.len(), oracle.len());
    }

    #[test]
    fn cycle_counters_do_not_count_as_divergence() {
        let m = machine();
        let mut f = m.snapshot();
        f.cpu_mut(0).cycles += 1000;
        f.cpu_mut(0).insns_retired += 10;
        let d = diff_machines(&m, &f, 0, 2);
        assert!(d.is_empty(), "measurement state must be excluded: {d:?}");
    }
}
