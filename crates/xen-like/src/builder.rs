//! Build the hypervisor image and an initialized machine.
//!
//! `build_image` assembles every stub and handler into one text image;
//! `build_machine` maps the physical memory, loads the image, fills the
//! dispatch table and initializes all hypervisor data structures for a
//! given topology (CPUs × domains × VCPUs).

use crate::handlers::{exceptions, hypercalls, irq, sched, stubs};
use crate::layout::{self as lay, domain, pcpu, runq, vcpu};
use sim_asm::{Asm, Image};
use sim_machine::exit::{NR_APIC_VECTORS, NR_DEVICE_IRQS, NR_HYPERCALLS};
use sim_machine::{CycleModel, Machine, MachineConfig, Memory, Perms, VirtMode};

/// One guest domain in the topology.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Number of virtual CPUs (1..=MAX_VCPUS_PER_DOM).
    pub nr_vcpus: usize,
}

/// The machine topology: mirrors the paper's experimental setups (e.g. one
/// Dom0 plus two para-virtualized DomUs for fault injection; four guest VMs
/// for the activation-frequency study).
#[derive(Debug)]
pub struct Topology {
    /// Physical (logical) CPUs.
    pub nr_cpus: usize,
    /// Domain 0 is the control domain; the rest are guests.
    pub domains: Vec<DomainSpec>,
    /// Para-virtualized or hardware-assisted guests.
    pub virt_mode: VirtMode,
    /// Seed for the workload-variability generator.
    pub seed: u64,
    /// Cycle model (defaults match the paper's Xeon E5506).
    pub cycle_model: CycleModel,
}

impl Clone for Topology {
    fn clone(&self) -> Topology {
        Topology {
            nr_cpus: self.nr_cpus,
            domains: self.domains.clone(),
            virt_mode: self.virt_mode,
            seed: self.seed,
            cycle_model: self.cycle_model,
        }
    }

    /// Field by field, so the domain list keeps its allocation (a
    /// [`Platform`](crate::Platform) rebuilt from another carries one).
    fn clone_from(&mut self, source: &Topology) {
        let Topology {
            nr_cpus,
            domains,
            virt_mode,
            seed,
            cycle_model,
        } = source;
        self.nr_cpus = *nr_cpus;
        self.domains.clone_from(domains);
        self.virt_mode = *virt_mode;
        self.seed = *seed;
        self.cycle_model = *cycle_model;
    }
}

impl Topology {
    /// The paper's fault-injection setup: 4 CPUs, Dom0 with one VCPU and two
    /// DomU guests with one VCPU each, para-virtualized.
    pub fn paper_fault_injection(seed: u64) -> Topology {
        Topology {
            nr_cpus: 1,
            domains: vec![
                DomainSpec { nr_vcpus: 1 },
                DomainSpec { nr_vcpus: 1 },
                DomainSpec { nr_vcpus: 1 },
            ],
            virt_mode: VirtMode::Para,
            seed,
            cycle_model: CycleModel::default(),
        }
    }

    /// Total real VCPUs.
    pub fn nr_vcpus(&self) -> usize {
        self.domains.iter().map(|d| d.nr_vcpus).sum()
    }
}

/// Assemble the full hypervisor text image for `nr_cpus` CPUs.
pub fn build_image(nr_cpus: usize) -> Image {
    assert!(nr_cpus <= lay::MAX_PCPUS);
    let mut a = Asm::new(lay::HV_TEXT_BASE);
    // Trampolines must be first: hardware enters at HV_TEXT_BASE + cpu*24.
    stubs::emit_trampolines(&mut a, lay::MAX_PCPUS);
    stubs::emit_common(&mut a);
    sched::emit_schedule(&mut a);
    hypercalls::emit_all(&mut a);
    exceptions::emit_all(&mut a);
    irq::emit_all(&mut a);
    let img = a.assemble().expect("hypervisor image assembles");
    assert!(
        img.len() <= lay::HV_TEXT_WORDS,
        "hypervisor text overflow: {} words > {}",
        img.len(),
        lay::HV_TEXT_WORDS
    );
    img
}

/// Resolve the dispatch-table entry for a dense VMER code.
fn dispatch_target(img: &Image, vmer: u16) -> u64 {
    match vmer {
        c if c < NR_HYPERCALLS as u16 => img.sym(&hypercalls::label(c as u8)),
        c if c < 58 => img.sym(&exceptions::label((c - 38) as u8)),
        c if c < 58 + NR_DEVICE_IRQS as u16 => img.sym(irq::DO_IRQ),
        c if c < 74 + NR_APIC_VECTORS as u16 => img.sym(&irq::apic_label((c - 74) as u8)),
        84 => img.sym(irq::DO_SOFTIRQ),
        85 => img.sym(irq::DO_TASKLET),
        86 => img.sym("hvm_io_read"),
        87 => img.sym("hvm_io_write"),
        88 => img.sym("hvm_cpuid"),
        89 => img.sym("hvm_rdtsc"),
        90 => img.sym("hvm_hlt"),
        _ => unreachable!("vmer {vmer} out of range"),
    }
}

/// Map memory, load the hypervisor, initialize every data structure, and
/// return the machine plus the assembled image (for symbol lookups).
pub fn build_machine(topo: &Topology) -> (Machine, Image) {
    assert!(!topo.domains.is_empty(), "need at least dom0");
    assert!(topo.domains.len() <= lay::MAX_DOMS);
    for (d, spec) in topo.domains.iter().enumerate() {
        assert!(
            spec.nr_vcpus >= 1 && spec.nr_vcpus <= lay::MAX_VCPUS_PER_DOM,
            "domain {d} has invalid vcpu count {}",
            spec.nr_vcpus
        );
    }
    let img = build_image(topo.nr_cpus);

    let mut mem = Memory::new();
    mem.map("hv.text", lay::HV_TEXT_BASE, lay::HV_TEXT_WORDS, Perms::RX);
    // Hypervisor data families are mapped sparsely, each as its own region
    // with unmapped gaps between them (see `layout`): corrupted indexes and
    // pointers fault instead of silently hitting a neighbour structure.
    mem.map("hv.global", lay::GLOBAL_BASE, lay::GLOBAL_WORDS, Perms::RW);
    mem.map(
        "hv.scratch",
        lay::SCRATCH_BASE,
        lay::SCRATCH_WORDS,
        Perms::RW,
    );
    mem.map(
        "hv.dispatch",
        lay::DISPATCH_BASE,
        lay::dispatch_entries() as usize,
        Perms::RW,
    );
    mem.map(
        "hv.pcpu",
        lay::pcpu::BASE,
        lay::MAX_PCPUS * lay::pcpu::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.vcpu",
        lay::vcpu::BASE,
        lay::MAX_VCPUS * lay::vcpu::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.domain",
        lay::domain::BASE,
        lay::MAX_DOMS * lay::domain::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.evtchn",
        lay::evtchn::BASE,
        lay::MAX_DOMS * lay::evtchn::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.grant",
        lay::grant::BASE,
        lay::MAX_DOMS * lay::grant::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.shared",
        lay::shared::BASE,
        lay::MAX_DOMS * lay::shared::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.runq",
        lay::runq::BASE,
        lay::MAX_PCPUS * lay::runq::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.ptbl",
        lay::ptbl::BASE,
        lay::MAX_DOMS * lay::ptbl::STRIDE as usize,
        Perms::RW,
    );
    mem.map(
        "hv.stacks",
        lay::HV_STACK_BASE,
        (lay::MAX_PCPUS as u64 * lay::HV_STACK_SIZE / 8) as usize,
        Perms::RW,
    );
    mem.map(
        "vmcs",
        lay::VMCS_BASE,
        lay::MAX_PCPUS * sim_machine::VMCS_WORDS as usize,
        Perms::RW,
    );
    for d in 0..topo.domains.len() {
        mem.map(
            &format!("dom{d}.text"),
            lay::guest_text(d),
            lay::GUEST_TEXT_WORDS,
            Perms::RX,
        );
        mem.map(
            &format!("dom{d}.data"),
            lay::guest_data(d),
            lay::GUEST_DATA_WORDS,
            Perms::RW,
        );
    }
    mem.load_image(img.base, &img.words)
        .expect("hypervisor text loads");

    let config = MachineConfig {
        nr_cpus: topo.nr_cpus,
        host_entry: lay::HV_TEXT_BASE,
        host_entry_stride: stubs::TRAMPOLINE_STRIDE,
        host_stack_base: lay::HV_STACK_BASE,
        host_stack_size: lay::HV_STACK_SIZE,
        vmcs_base: lay::VMCS_BASE,
        virt_mode: topo.virt_mode,
        cycle_model: topo.cycle_model,
    };
    let mut m = Machine::new(config, mem, topo.seed);

    init_data(&mut m, topo, &img);

    // Boot each CPU at the return-to-guest stub with its per-CPU pointer in
    // rbp: the first "activation" restores the first scheduled VCPU and
    // VM-enters it.
    let ret_stub = img.sym("vmexit_return");
    for cpu in 0..topo.nr_cpus {
        let c = m.cpu_mut(cpu);
        c.rip = ret_stub;
        c.set(sim_machine::Reg::Rbp, lay::pcpu_addr(cpu));
    }
    (m, img)
}

/// Populate globals, dispatch table, PCPU/VCPU/domain structures and run
/// queues.
fn init_data(m: &mut Machine, topo: &Topology, img: &Image) {
    let poke = |m: &mut Machine, addr: u64, v: u64| {
        m.mem.poke(addr, v).expect("init address mapped");
    };

    // Globals.
    poke(
        m,
        lay::global_addr(lay::global::NUM_DOMS),
        topo.domains.len() as u64,
    );
    poke(
        m,
        lay::global_addr(lay::global::NUM_PCPUS),
        topo.nr_cpus as u64,
    );
    poke(m, lay::global_addr(lay::global::WALLCLOCK), 1);

    // Dispatch table.
    for vmer in 0..lay::dispatch_entries() {
        poke(m, lay::dispatch_entry(vmer), dispatch_target(img, vmer));
    }

    // Domains and their VCPUs.
    let mut first_vcpu = 0usize;
    for (d, spec) in topo.domains.iter().enumerate() {
        let da = lay::domain_addr(d);
        poke(m, da + domain::DOM_ID * 8, d as u64);
        poke(m, da + domain::NR_VCPUS * 8, spec.nr_vcpus as u64);
        poke(m, da + domain::EVTCHN_PTR * 8, lay::evtchn_addr(d));
        poke(m, da + domain::GRANT_PTR * 8, lay::grant_addr(d));
        poke(m, da + domain::SHARED_PTR * 8, lay::shared_addr(d));
        poke(m, da + domain::MEM_BASE * 8, lay::guest_window(d));
        poke(m, da + domain::MEM_SIZE * 8, lay::GUEST_STRIDE);
        poke(m, da + domain::FIRST_VCPU * 8, first_vcpu as u64);
        // Until the guest registers one, traps are delivered to the guest
        // entry point.
        poke(m, da + domain::TRAP_HANDLER * 8, lay::guest_text(d));

        for v in 0..spec.nr_vcpus {
            let va = lay::vcpu_addr(first_vcpu + v);
            poke(m, va + vcpu::SAVE_RIP * 8, lay::guest_text(d));
            // Each VCPU gets its own kernel stack carved from the top of
            // the data region.
            poke(m, va + 4 * 8, lay::guest_stack_top(d) - (v as u64) * 0x2000);
            poke(m, va + vcpu::DOM_ID * 8, d as u64);
            poke(m, va + vcpu::VCPU_ID * 8, v as u64);
            poke(m, va + vcpu::RUNNABLE * 8, 1);
            poke(m, va + vcpu::DOM_PTR * 8, da);
            poke(
                m,
                va + vcpu::TIME_OFFSET * 8,
                (d as u64) * 0x1_0000 + v as u64 * 0x100,
            );
        }
        first_vcpu += lay::MAX_VCPUS_PER_DOM; // descriptors are strided per domain
    }

    // Idle VCPUs (one per physical CPU).
    for cpu in 0..topo.nr_cpus {
        let va = lay::vcpu_addr(lay::idle_vcpu_index(cpu));
        poke(m, va + vcpu::IS_IDLE * 8, 1);
        poke(m, va + vcpu::DOM_ID * 8, 0);
        poke(m, va + vcpu::DOM_PTR * 8, lay::domain_addr(0));
        poke(m, va + vcpu::SAVE_RIP * 8, lay::guest_text(0));
        poke(m, va + 4 * 8, lay::guest_stack_top(0) - 0x8000);
    }

    // Run queues: real VCPUs distributed round-robin over CPUs.
    let mut counts = vec![0u64; topo.nr_cpus];
    let mut assigned_first: Vec<Option<u64>> = vec![None; topo.nr_cpus];
    let mut global = 0usize;
    for (d, spec) in topo.domains.iter().enumerate() {
        for v in 0..spec.nr_vcpus {
            let idx = d * lay::MAX_VCPUS_PER_DOM + v;
            let cpu = global % topo.nr_cpus;
            let rq = lay::runq_addr(cpu);
            let slot = counts[cpu];
            assert!(slot < runq::MAX_ENTRIES, "run queue overflow on cpu {cpu}");
            poke(m, rq + (runq::ENTRIES + slot) * 8, lay::vcpu_addr(idx));
            counts[cpu] = slot + 1;
            if assigned_first[cpu].is_none() {
                assigned_first[cpu] = Some(lay::vcpu_addr(idx));
            }
            global += 1;
        }
    }
    for (cpu, &count) in counts.iter().enumerate() {
        let rq = lay::runq_addr(cpu);
        poke(m, rq + runq::COUNT * 8, count);
        poke(m, rq + runq::CURSOR * 8, 0);
    }

    // Guest page tables: every domain's data region is mapped through
    // identity PTEs in hv.ptbl, so data accesses walk a PTE first
    // (fault-on-walk). Healthy tables translate to themselves — execution
    // is unchanged — but a PTE soft error now manifests like on real
    // hardware: #PF on a cleared present bit, write fault on a cleared RW
    // bit, silent redirection on corrupted frame bits.
    for d in 0..topo.domains.len() {
        let map = sim_machine::PageMap {
            virt_base: lay::guest_data(d),
            nr_pages: lay::ptbl::PAGES_PER_DOM as u32,
            ptbl_base: lay::ptbl_addr(d),
        };
        for page in 0..map.nr_pages {
            poke(m, map.ptbl_base + page as u64 * 8, map.identity_pte(page));
        }
        m.mem.add_page_map(map);
    }

    // PCPU blocks.
    for cpu in 0..topo.nr_cpus {
        let pa = lay::pcpu_addr(cpu);
        poke(m, pa + pcpu::VMCS_PTR * 8, m.config.vmcs_field(cpu, 0));
        poke(m, pa + pcpu::RUNQ_PTR * 8, lay::runq_addr(cpu));
        poke(
            m,
            pa + pcpu::IDLE_VCPU * 8,
            lay::vcpu_addr(lay::idle_vcpu_index(cpu)),
        );
        match assigned_first[cpu] {
            Some(v) => {
                poke(m, pa + pcpu::CURRENT_VCPU * 8, v);
                poke(m, pa + pcpu::IDLE * 8, 0);
                // Cursor starts past entry 0 so the first schedule() call
                // rotates fairly.
                poke(
                    m,
                    lay::runq_addr(cpu) + runq::CURSOR * 8,
                    1 % counts[cpu].max(1),
                );
            }
            None => {
                poke(
                    m,
                    pa + pcpu::CURRENT_VCPU * 8,
                    lay::vcpu_addr(lay::idle_vcpu_index(cpu)),
                );
                poke(m, pa + pcpu::IDLE * 8, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_assembles_with_all_symbols() {
        let img = build_image(4);
        // Spot-check the symbol families.
        for n in 0..NR_HYPERCALLS {
            assert!(
                img.symbol(&hypercalls::label(n)).is_some(),
                "missing hypercall {n}"
            );
        }
        for v in 0..20u8 {
            assert!(
                img.symbol(&exceptions::label(v)).is_some(),
                "missing exception {v}"
            );
        }
        for v in 0..NR_APIC_VECTORS {
            assert!(
                img.symbol(&irq::apic_label(v)).is_some(),
                "missing apic {v}"
            );
        }
        assert!(img.symbol("vmexit_common").is_some());
        assert!(img.symbol("vmexit_return").is_some());
        assert!(img.symbol("schedule").is_some());
        assert!(img.symbol("deliver_events").is_some());
        assert!(img.symbol("evtchn_set_pending").is_some());
        assert!(img.symbol("vcpu_mark_events_pending").is_some());
    }

    #[test]
    fn image_size_is_realistic() {
        // The paper quotes ~2,000 LoC for Xentry and a much larger Xen; our
        // handler catalogue should be in the thousands of instructions.
        let img = build_image(4);
        assert!(
            img.len() > 1000,
            "suspiciously small hypervisor: {} words",
            img.len()
        );
        assert!(img.len() <= lay::HV_TEXT_WORDS);
    }

    #[test]
    fn trampolines_match_config_stride() {
        let img = build_image(lay::MAX_PCPUS);
        for cpu in 0..lay::MAX_PCPUS {
            let sym = img.sym(&format!("vmexit_entry_cpu{cpu}"));
            assert_eq!(
                sym,
                lay::HV_TEXT_BASE + cpu as u64 * stubs::TRAMPOLINE_STRIDE,
                "trampoline {cpu} misplaced"
            );
        }
    }

    #[test]
    fn machine_builds_with_initialized_structures() {
        let topo = Topology::paper_fault_injection(42);
        let (m, img) = build_machine(&topo);
        assert_eq!(
            m.mem.peek(lay::global_addr(lay::global::NUM_DOMS)).unwrap(),
            3
        );
        // Dispatch entry 17 (xen_version) points at its handler.
        assert_eq!(
            m.mem.peek(lay::dispatch_entry(17)).unwrap(),
            img.sym(&hypercalls::label(17))
        );
        // VCPU 0 of dom 1 was initialized.
        let va = lay::vcpu_addr(lay::MAX_VCPUS_PER_DOM);
        assert_eq!(m.mem.peek(va + vcpu::DOM_ID * 8).unwrap(), 1);
        assert_eq!(
            m.mem.peek(va + vcpu::SAVE_RIP * 8).unwrap(),
            lay::guest_text(1)
        );
        // CPU 0 boots at the return stub.
        assert_eq!(m.cpu(0).rip, img.sym("vmexit_return"));
    }

    #[test]
    #[should_panic(expected = "invalid vcpu count")]
    fn zero_vcpus_rejected() {
        let mut topo = Topology::paper_fault_injection(1);
        topo.domains[1].nr_vcpus = 0;
        build_machine(&topo);
    }
}
