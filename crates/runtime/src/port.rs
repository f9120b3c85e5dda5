//! The memory-port abstraction between the runtime engine and the memory
//! system, plus a self-contained scratchpad-like model for standalone runs.

use std::collections::VecDeque;

use salam_ir::interp::SparseMemory;

/// One memory operation leaving the engine's read/write queues.
#[derive(Debug, Clone, PartialEq)]
pub struct MemAccess {
    /// Engine-chosen token, echoed in the completion.
    pub token: u64,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u32,
    /// Whether this is a store.
    pub is_write: bool,
    /// Store payload.
    pub data: Option<Vec<u8>>,
}

/// A finished memory operation.
#[derive(Debug, Clone, PartialEq)]
pub struct MemCompletion {
    /// Echo of [`MemAccess::token`].
    pub token: u64,
    /// Loaded bytes for reads.
    pub data: Option<Vec<u8>>,
}

/// Why a port refused an access this cycle. Ports attach the cause that
/// *originated* the refusal, so the engine's cycle accounting can attribute
/// contention to the component that caused it rather than the one that
/// observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectCause {
    /// Per-cycle read-port budget exhausted.
    ReadPorts,
    /// Per-cycle write-port budget exhausted.
    WritePorts,
    /// Downstream component busy (DMA in flight, MSHRs full).
    Busy,
    /// Interconnect width serialization (crossbar beat conflict).
    Width,
    /// Unspecified downstream backpressure.
    Downstream,
}

impl RejectCause {
    /// Every cause, in discriminant order (`cause as usize` indexes it).
    pub(crate) const ALL: [RejectCause; 5] = [
        RejectCause::ReadPorts,
        RejectCause::WritePorts,
        RejectCause::Busy,
        RejectCause::Width,
        RejectCause::Downstream,
    ];

    /// Stable label used in stats maps and reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::ReadPorts => "read_ports",
            RejectCause::WritePorts => "write_ports",
            RejectCause::Busy => "busy",
            RejectCause::Width => "width",
            RejectCause::Downstream => "downstream",
        }
    }
}

/// A refused access plus its cause code, returned by
/// [`MemPort::try_issue`]. The access is handed back unchanged so the
/// caller can retry it next cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The access the port refused.
    pub access: MemAccess,
    /// Why it was refused.
    pub cause: RejectCause,
}

impl Rejection {
    /// Pairs the refused access with its cause.
    pub fn new(access: MemAccess, cause: RejectCause) -> Self {
        Rejection { access, cause }
    }
}

/// What the engine plugs its memory queues into.
///
/// Implementations range from the bundled [`SimpleMem`] (a private
/// fixed-latency scratchpad) to the full `salam` communications interface
/// that forwards into the `memsys` crate. Interchangeability of this
/// interface is the paper's "decoupling of datapath and memory" claim made
/// concrete.
pub trait MemPort {
    /// Called once at the start of every engine cycle; refreshes per-cycle
    /// port budgets and advances internal time.
    fn begin_cycle(&mut self);

    /// Tries to accept one access this cycle. Returns the access back —
    /// wrapped in a [`Rejection`] carrying the cause — if the port is out
    /// of bandwidth or buffering.
    ///
    /// # Errors
    ///
    /// The rejected access is returned unchanged so the caller can retry it
    /// next cycle; the [`RejectCause`] feeds the engine's cycle accounting.
    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection>;

    /// Drains completions that have arrived since the last poll.
    fn poll(&mut self) -> Vec<MemCompletion>;
}

/// A private scratchpad model with per-cycle read/write port budgets and a
/// fixed latency — enough to run an accelerator standalone (datapath + SPM),
/// the configuration the paper validates against HLS in Fig. 10.
#[derive(Debug)]
pub struct SimpleMem {
    mem: SparseMemory,
    latency_cycles: u64,
    read_ports: u32,
    write_ports: u32,
    reads_left: u32,
    writes_left: u32,
    cycle: u64,
    pending: VecDeque<(u64, MemCompletion)>, // (ready_cycle, completion)
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl SimpleMem {
    /// Creates a model with the given latency and port counts.
    pub fn new(latency_cycles: u64, read_ports: u32, write_ports: u32) -> Self {
        SimpleMem {
            mem: SparseMemory::new(),
            latency_cycles: latency_cycles.max(1),
            read_ports: read_ports.max(1),
            write_ports: write_ports.max(1),
            reads_left: read_ports.max(1),
            writes_left: write_ports.max(1),
            cycle: 0,
            pending: VecDeque::new(),
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// The backing functional memory (for pre-loading inputs and reading
    /// results).
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// Reads serviced.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Bytes read and written.
    pub fn bytes(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }
}

impl MemPort for SimpleMem {
    fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.reads_left = self.read_ports;
        self.writes_left = self.write_ports;
    }

    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        use salam_ir::interp::Memory as _;
        let (budget, cause) = if access.is_write {
            (&mut self.writes_left, RejectCause::WritePorts)
        } else {
            (&mut self.reads_left, RejectCause::ReadPorts)
        };
        if *budget == 0 {
            return Err(Rejection::new(access, cause));
        }
        *budget -= 1;
        let ready = self.cycle + self.latency_cycles;
        let completion = if access.is_write {
            self.writes += 1;
            self.bytes_written += access.size as u64;
            let data = access.data.as_deref().unwrap_or(&[]);
            self.mem.write(access.addr, data);
            MemCompletion {
                token: access.token,
                data: None,
            }
        } else {
            self.reads += 1;
            self.bytes_read += access.size as u64;
            let mut buf = vec![0u8; access.size as usize];
            self.mem.read(access.addr, &mut buf);
            MemCompletion {
                token: access.token,
                data: Some(buf),
            }
        };
        self.pending.push_back((ready, completion));
        Ok(())
    }

    fn poll(&mut self) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        while let Some((ready, _)) = self.pending.front() {
            if *ready <= self.cycle {
                out.push(self.pending.pop_front().expect("nonempty").1);
            } else {
                break;
            }
        }
        out
    }
}

/// A fault-injecting wrapper around any [`MemPort`]: spurious busy
/// rejects on issue, and dropped / delayed / bit-flipped completions on
/// the return path, all drawn from per-site streams of a
/// [`salam_fault::FaultPlan`].
///
/// A dropped completion is never delivered — the engine's outstanding-op
/// count stays up and the run ends in a diagnosable
/// [`salam_fault::SimError::Deadlock`] rather than silent corruption.
/// Injection counts are kept per kind for merging into
/// [`crate::EngineStats::fault_counts`].
#[derive(Debug)]
pub struct FaultyPort<P> {
    inner: P,
    plan: salam_fault::FaultPlan,
    busy: salam_fault::SiteRng,
    resp: salam_fault::SiteRng,
    /// Delayed completions: `(cycles_left, completion)`.
    held: Vec<(u64, MemCompletion)>,
    counts: salam_fault::FaultCounts,
}

impl<P: MemPort> FaultyPort<P> {
    /// Wraps `inner` under `plan`. A zero-rate plan makes the wrapper a
    /// pure pass-through.
    pub fn new(inner: P, plan: &salam_fault::FaultPlan) -> Self {
        FaultyPort {
            inner,
            plan: *plan,
            busy: plan.site_rng("port.busy"),
            resp: plan.site_rng("port.response"),
            held: Vec::new(),
            counts: salam_fault::FaultCounts::new(),
        }
    }

    /// The wrapped port.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps, discarding fault state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Injected faults so far, by kind (`mem_busy`, `mem_drop`,
    /// `mem_bitflip`, `mem_delay`).
    pub fn fault_counts(&self) -> &salam_fault::FaultCounts {
        &self.counts
    }
}

impl<P: MemPort> MemPort for FaultyPort<P> {
    fn begin_cycle(&mut self) {
        self.inner.begin_cycle();
        for (left, _) in &mut self.held {
            *left = left.saturating_sub(1);
        }
    }

    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        if self.busy.roll(self.plan.port_busy_rate) {
            salam_fault::count_fault(&mut self.counts, "mem_busy");
            return Err(Rejection::new(access, RejectCause::Busy));
        }
        self.inner.try_issue(access)
    }

    fn poll(&mut self) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        let mut still_held = Vec::new();
        for (left, c) in self.held.drain(..) {
            if left == 0 {
                out.push(c);
            } else {
                still_held.push((left, c));
            }
        }
        self.held = still_held;
        for mut c in self.inner.poll() {
            if self.resp.roll(self.plan.mem_drop_rate) {
                salam_fault::count_fault(&mut self.counts, "mem_drop");
                continue;
            }
            if let Some(data) = c.data.as_mut() {
                if !data.is_empty() && self.resp.roll(self.plan.mem_bitflip_rate) {
                    let byte = self.resp.index(data.len());
                    data[byte] ^= 1 << self.resp.bit(8);
                    salam_fault::count_fault(&mut self.counts, "mem_bitflip");
                }
            }
            if self.plan.mem_delay_cycles > 0 && self.resp.roll(self.plan.mem_delay_rate) {
                salam_fault::count_fault(&mut self.counts, "mem_delay");
                self.held.push((self.plan.mem_delay_cycles, c));
                continue;
            }
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_port_budgets() {
        let mut m = SimpleMem::new(1, 2, 1);
        m.begin_cycle();
        assert!(m
            .try_issue(MemAccess {
                token: 1,
                addr: 0,
                size: 4,
                is_write: false,
                data: None
            })
            .is_ok());
        assert!(m
            .try_issue(MemAccess {
                token: 2,
                addr: 4,
                size: 4,
                is_write: false,
                data: None
            })
            .is_ok());
        assert!(m
            .try_issue(MemAccess {
                token: 3,
                addr: 8,
                size: 4,
                is_write: false,
                data: None
            })
            .is_err());
        // Write budget is independent.
        assert!(m
            .try_issue(MemAccess {
                token: 4,
                addr: 12,
                size: 4,
                is_write: true,
                data: Some(vec![0; 4])
            })
            .is_ok());
        m.begin_cycle();
        assert!(m
            .try_issue(MemAccess {
                token: 5,
                addr: 8,
                size: 4,
                is_write: false,
                data: None
            })
            .is_ok());
    }

    #[test]
    fn rejects_carry_a_cause_per_direction() {
        let mut m = SimpleMem::new(1, 1, 1);
        m.begin_cycle();
        let acc = |token: u64, is_write: bool| MemAccess {
            token,
            addr: 0,
            size: 4,
            is_write,
            data: is_write.then(|| vec![0; 4]),
        };
        m.try_issue(acc(1, false)).unwrap();
        m.try_issue(acc(2, true)).unwrap();
        let r = m.try_issue(acc(3, false)).unwrap_err();
        assert_eq!(r.cause, RejectCause::ReadPorts);
        assert_eq!(r.access.token, 3, "access handed back for retry");
        let w = m.try_issue(acc(4, true)).unwrap_err();
        assert_eq!(w.cause, RejectCause::WritePorts);
        assert_eq!(RejectCause::ReadPorts.label(), "read_ports");
    }

    #[test]
    fn completions_arrive_after_latency() {
        let mut m = SimpleMem::new(3, 1, 1);
        m.begin_cycle(); // cycle 1
        m.try_issue(MemAccess {
            token: 9,
            addr: 0,
            size: 4,
            is_write: false,
            data: None,
        })
        .unwrap();
        assert!(m.poll().is_empty());
        m.begin_cycle(); // 2
        m.begin_cycle(); // 3
        assert!(m.poll().is_empty());
        m.begin_cycle(); // 4 = 1 + 3
        let done = m.poll();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 9);
    }

    #[test]
    fn data_flows_through() {
        let mut m = SimpleMem::new(1, 1, 1);
        m.memory_mut().write_i32_slice(0x10, &[1234]);
        m.begin_cycle();
        m.try_issue(MemAccess {
            token: 1,
            addr: 0x10,
            size: 4,
            is_write: false,
            data: None,
        })
        .unwrap();
        m.begin_cycle();
        let c = m.poll();
        assert_eq!(c[0].data.as_deref(), Some(&1234i32.to_le_bytes()[..]));
    }

    fn read_acc(token: u64, addr: u64) -> MemAccess {
        MemAccess {
            token,
            addr,
            size: 4,
            is_write: false,
            data: None,
        }
    }

    #[test]
    fn zero_rate_faulty_port_is_a_pass_through() {
        let drive = |mut port: Box<dyn MemPort>| -> Vec<MemCompletion> {
            let mut out = Vec::new();
            for t in 0..8u64 {
                port.begin_cycle();
                port.try_issue(read_acc(t, 4 * t)).unwrap();
                out.extend(port.poll());
            }
            for _ in 0..4 {
                port.begin_cycle();
                out.extend(port.poll());
            }
            out
        };
        let mut plain = SimpleMem::new(2, 2, 2);
        plain.memory_mut().write_i32_slice(0, &[7; 8]);
        let mut wrapped = SimpleMem::new(2, 2, 2);
        wrapped.memory_mut().write_i32_slice(0, &[7; 8]);
        let faulty = FaultyPort::new(wrapped, &salam_fault::FaultPlan::seeded(123));
        let a = drive(Box::new(plain));
        let b = drive(Box::new(faulty));
        assert_eq!(a, b, "zero-rate plan must be observationally free");
    }

    #[test]
    fn dropped_completions_never_arrive_and_are_counted() {
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_i32_slice(0, &[1; 16]);
        let plan = salam_fault::FaultPlan {
            mem_drop_rate: 1.0,
            ..salam_fault::FaultPlan::seeded(5)
        };
        let mut port = FaultyPort::new(mem, &plan);
        for t in 0..4u64 {
            port.begin_cycle();
            port.try_issue(read_acc(t, 4 * t)).unwrap();
        }
        for _ in 0..4 {
            port.begin_cycle();
            assert!(port.poll().is_empty());
        }
        assert_eq!(port.fault_counts()["mem_drop"], 4);
    }

    #[test]
    fn delayed_completions_arrive_late_and_intact() {
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_i32_slice(0, &[42; 4]);
        let plan = salam_fault::FaultPlan {
            mem_delay_rate: 1.0,
            mem_delay_cycles: 3,
            ..salam_fault::FaultPlan::seeded(5)
        };
        let mut port = FaultyPort::new(mem, &plan);
        port.begin_cycle();
        port.try_issue(read_acc(1, 0)).unwrap();
        let mut arrived_after = 0u64;
        for i in 1..=8u64 {
            port.begin_cycle();
            let got = port.poll();
            if !got.is_empty() {
                assert_eq!(got[0].data.as_deref(), Some(&42i32.to_le_bytes()[..]));
                arrived_after = i;
                break;
            }
        }
        // 1 cycle SPM latency + 3 held cycles.
        assert_eq!(arrived_after, 4);
        assert_eq!(port.fault_counts()["mem_delay"], 1);
    }

    #[test]
    fn bitflips_change_exactly_one_bit_deterministically() {
        let run = || {
            let mut mem = SimpleMem::new(1, 4, 4);
            mem.memory_mut().write_i32_slice(0, &[0; 4]);
            let plan = salam_fault::FaultPlan {
                mem_bitflip_rate: 1.0,
                ..salam_fault::FaultPlan::seeded(9)
            };
            let mut port = FaultyPort::new(mem, &plan);
            port.begin_cycle();
            port.try_issue(read_acc(1, 0)).unwrap();
            port.begin_cycle();
            port.poll()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the same flip");
        let bits: u32 = a[0]
            .data
            .as_deref()
            .unwrap()
            .iter()
            .map(|x| x.count_ones())
            .sum();
        assert_eq!(bits, 1, "exactly one bit flipped in an all-zero word");
    }

    #[test]
    fn busy_storms_reject_with_busy_cause() {
        let mem = SimpleMem::new(1, 4, 4);
        let plan = salam_fault::FaultPlan {
            port_busy_rate: 1.0,
            ..salam_fault::FaultPlan::seeded(2)
        };
        let mut port = FaultyPort::new(mem, &plan);
        port.begin_cycle();
        let r = port.try_issue(read_acc(1, 0)).unwrap_err();
        assert_eq!(r.cause, RejectCause::Busy);
        assert_eq!(r.access.token, 1);
        assert_eq!(port.fault_counts()["mem_busy"], 1);
    }
}
