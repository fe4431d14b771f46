//! Multi-hop DCE network engine: chained switches, per-link 802.3x
//! PAUSE with its head-of-line blocking, and end-to-end BCN.
//!
//! The paper's Introduction motivates BCN with exactly this scenario:
//! hop-by-hop PAUSE "cannot properly alleviate congestion ... because the
//! congestion can roll back from switch to switch, affecting flows that
//! do not contribute to the congestion, but happen to share a link with
//! flows that do." This engine makes the claim testable: build a small
//! topology with a congested leaf port and an innocent *victim* flow
//! sharing only the trunk, then compare PAUSE-only against end-to-end
//! BCN (see [`victim_topology`] and the `exp_pause_hol` experiment).
//!
//! The engine generalises [`crate::sim`]'s single-bottleneck model:
//! hosts connect to switches over pause-able access links, switches have
//! per-output-port FIFO queues, each port may host a BCN congestion
//! point, and PAUSE propagates upstream link by link with its
//! propagation delay.
//!
//! Besides plain 802.3x PAUSE, the engine implements **priority flow
//! control** (PFC, 802.1Qbb — the "priority-flow control" extension the
//! paper's introduction lists among the DCE building blocks): frames
//! carry a priority class, ports queue per class (round-robin service),
//! and PAUSE can be asserted per class, so a congested storage class
//! cannot stall an innocent class sharing the links — the cross-class
//! half of the head-of-line-blocking problem (BCN remains necessary for
//! victims *within* the congested class).

use std::collections::VecDeque;

use telemetry::{FaultClass, SeriesKind, Telemetry};

use crate::cp::{CongestionPoint, CpConfig};
use crate::error::ConfigError;
use crate::faults::{FaultConfig, FaultCounts, FaultPlan, FeedbackFate};
use crate::frame::{BcnMessage, CpId, DataFrame, SourceId};
use crate::metrics::TimeSeries;
use crate::rp::{ReactionPoint, RpConfig};
use crate::sched::{EventQueue, Scheduler};
use crate::time::{Duration, Time};

/// Number of 802.1p priority classes the engine models.
pub const N_PRIORITIES: usize = 8;

/// Where a link terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A host (source or sink) by index.
    Host(usize),
    /// A switch by index (ingress side; egress is via ports/links).
    Switch(usize),
}

/// One unidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Transmitting side.
    pub from: Endpoint,
    /// Receiving side.
    pub to: Endpoint,
    /// Capacity in bit/s (serialization happens at the transmitter).
    pub capacity: f64,
    /// Propagation delay.
    pub delay: Duration,
}

/// One switch (output-queued: each output port has its own buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSpec {
    /// Per-output-port buffer (bits).
    pub buffer_bits: f64,
    /// PAUSE threshold on any single port's backlog (bits).
    pub qsc_bits: f64,
    /// Routing: for each destination host, the index (into the global
    /// link list) of the outgoing link to use.
    pub routes: Vec<(usize, usize)>,
    /// BCN congestion points, one per outgoing link that should monitor
    /// congestion: `(link index, config)`.
    pub cps: Vec<(usize, CpConfig)>,
}

/// A flow: a rate-regulated source host sending to a destination host.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFlow {
    /// Source host index.
    pub src_host: usize,
    /// Destination host index.
    pub dst_host: usize,
    /// Initial rate (bit/s).
    pub initial_rate: f64,
    /// Reaction-point configuration; `None` = fixed-rate (unmanaged)
    /// source.
    pub rp: Option<RpConfig>,
    /// 802.1p priority class (0..8); classes are queued separately and
    /// paused separately under PFC.
    pub priority: u8,
}

/// Whether per-link PAUSE is active and how long one assertion holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseConfig {
    /// Enables PAUSE generation at switches.
    pub enabled: bool,
    /// Transmission hold per PAUSE frame.
    pub hold: Duration,
    /// Priority flow control (802.1Qbb): pause only the congested
    /// priority class instead of the whole link.
    pub per_priority: bool,
}

/// Full network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Number of hosts (indices `0..hosts`).
    pub hosts: usize,
    /// The switches.
    pub switches: Vec<SwitchSpec>,
    /// The links (global indices; switch routes refer to these).
    pub links: Vec<LinkSpec>,
    /// The flows.
    pub flows: Vec<NetFlow>,
    /// Data frame size (bits).
    pub frame_bits: f64,
    /// Simulated duration.
    pub t_end: Time,
    /// Metrics sampling interval.
    pub record_interval: Duration,
    /// PAUSE behaviour.
    pub pause: PauseConfig,
    /// Fault injection ([`FaultConfig::none`] leaves every run
    /// byte-identical to the fault-free engine).
    pub faults: FaultConfig,
    /// Which event-queue backend drives the run (bit-identical results;
    /// see [`Scheduler`]).
    pub scheduler: Scheduler,
}

/// Per-flow outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowStats {
    /// Bits delivered to the flow's destination.
    pub delivered_bits: f64,
    /// Frames dropped anywhere along the path.
    pub dropped_frames: u64,
    /// Final regulator rate (bit/s).
    pub final_rate: f64,
}

/// Outcome of a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Per-flow statistics (same order as the config's flows).
    pub flows: Vec<FlowStats>,
    /// Per-switch shared-buffer occupancy over time.
    pub switch_queues: Vec<TimeSeries>,
    /// PAUSE assertions per link (indexed like the config's links).
    pub pause_counts: Vec<u64>,
    /// Total BCN messages delivered.
    pub feedback_messages: u64,
    /// Injected-fault tallies (all zero for a fault-free run).
    pub faults: FaultCounts,
    /// The telemetry shard, when a sink was attached (see
    /// [`NetSim::with_telemetry_sink`]); per-switch queue depths and
    /// per-flow rates land in its entity-keyed time series, PAUSE
    /// assertions become causal spans.
    pub telemetry: Option<Telemetry>,
}

impl NetReport {
    /// Throughput of flow `i` in bit/s over `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `duration` is non-positive.
    #[must_use]
    pub fn throughput(&self, i: usize, duration: f64) -> f64 {
        assert!(duration > 0.0);
        self.flows[i].delivered_bits / duration
    }
}

#[derive(Debug, Clone)]
struct NetFrame {
    flow: usize,
    bits: f64,
    rrt: Option<CpId>,
    priority: u8,
}

#[derive(Debug, Clone)]
enum Ev {
    HostSend(usize),
    Arrive { link: usize, frame: NetFrame },
    PortTx { switch: usize, port: usize },
    Feedback { flow: usize, msg: BcnMessage },
    PauseAt { switch: u32, delay: Duration, priority: Option<u8>, hold: Duration },
    Record,
}

struct Port {
    link: usize,
    /// One FIFO per priority class, served round-robin.
    queues: [VecDeque<NetFrame>; N_PRIORITIES],
    /// Backlog per priority class (bits).
    backlog_by_class: [f64; N_PRIORITIES],
    /// Bit `c` set iff `backlog_by_class[c] != 0.0`.
    nonzero_classes: u8,
    /// Round-robin pointer over the classes.
    rr_next: usize,
    busy: bool,
    cp: Option<CongestionPoint>,
}

impl Port {
    /// The port backlog: the non-zero classes summed in class order.
    ///
    /// Bit-identical to summing all eight classes with `Iterator::sum`:
    /// that sum starts from `-0.0`, so adding a `+0.0` class only ever
    /// turns a leading `-0.0` into `+0.0`, which starting from `+0.0`
    /// reproduces. (Class backlogs are never `-0.0`: they start at
    /// `+0.0` and an exact cancellation rounds to `+0.0`.)
    fn backlog_bits(&self) -> f64 {
        let mut sum = 0.0;
        let mut m = self.nonzero_classes;
        while m != 0 {
            sum += self.backlog_by_class[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        sum
    }
}

struct SwitchState {
    spec: SwitchSpec,
    ports: Vec<Port>,
    /// Bitset over `ports`: bit `pi` set iff port `pi` has a non-zero
    /// class backlog.
    active_ports: Vec<u64>,
    last_pause: Option<Time>,
}

impl SwitchState {
    /// Brings the class mask and the active-port set up to date after
    /// port `pi`'s class `cls` backlog changed.
    fn backlog_changed(&mut self, pi: usize, cls: usize) {
        let port = &mut self.ports[pi];
        if port.backlog_by_class[cls] == 0.0 {
            port.nonzero_classes &= !(1 << cls);
        } else {
            port.nonzero_classes |= 1 << cls;
        }
        let word = &mut self.active_ports[pi / 64];
        if port.nonzero_classes == 0 {
            *word &= !(1 << (pi % 64));
        } else {
            *word |= 1 << (pi % 64);
        }
    }

    /// The switch backlog: the active ports summed in port order.
    ///
    /// Bit-identical to `Iterator::sum` over every port for the same
    /// reason as [`Port::backlog_bits`]; an idle port contributes `+0.0`,
    /// so only a switch without ports starts (and stays) at `-0.0`.
    fn total_backlog(&self) -> f64 {
        let mut sum = if self.ports.is_empty() { -0.0 } else { 0.0 };
        for (w, &word) in self.active_ports.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                sum += self.ports[w * 64 + m.trailing_zeros() as usize].backlog_bits();
                m &= m - 1;
            }
        }
        sum
    }
}

/// The multi-hop simulation engine.
pub struct NetSim {
    cfg: NetConfig,
    events: EventQueue<Ev>,
    now: Time,
    switches: Vec<SwitchState>,
    /// Number of hosts (stride of `route_table`).
    n_hosts: usize,
    /// Flat next-hop table: `route_table[si * n_hosts + dst]` is the
    /// output *port* index on switch `si` for destination host `dst`
    /// (`NO_ROUTE` = none). Built once from the per-switch route lists;
    /// the per-frame path is a single indexed load instead of the old
    /// `routes.iter().find(...)` linear scan.
    route_table: Vec<u32>,
    /// CSR layout of the links terminating at each switch: switch `si`
    /// owns `incoming_links[incoming_off[si]..incoming_off[si + 1]]`.
    /// One flat allocation instead of the old `Vec<Vec<usize>>` (hoisted
    /// out of the PAUSE path, which used to collect this per assertion).
    incoming_off: Vec<u32>,
    incoming_links: Vec<u32>,
    /// The distinct delays of each switch's incoming links, in
    /// first-seen order, CSR-laid-out like `incoming_links`. A PAUSE
    /// assertion schedules one delivery event per distinct delay, which
    /// pauses every incoming link with that delay.
    pause_delay_off: Vec<u32>,
    pause_delays: Vec<Duration>,
    /// Pause state per link and priority class, read by the transmitter
    /// (plain PAUSE sets every class).
    link_paused_until: Vec<[Time; N_PRIORITIES]>,
    rps: Vec<Option<ReactionPoint>>,
    flow_rates_fixed: Vec<f64>,
    stats: Vec<FlowStats>,
    switch_queues: Vec<TimeSeries>,
    pause_counts: Vec<u64>,
    feedback_messages: u64,
    /// Outgoing access link per host (computed from the link list).
    host_uplink: Vec<Option<usize>>,
    /// Path delay from each flow's congestion points back to its source:
    /// approximated as the forward path delay (symmetric routes).
    feedback_delay: Vec<Duration>,
    /// Per-flow LCG state for pacing jitter (see `on_host_send`).
    jitter_state: Vec<u64>,
    faults: FaultPlan,
    fault_scratch: Vec<FaultClass>,
    telemetry: Option<Telemetry>,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("events_pending", &self.events.len())
            .finish_non_exhaustive()
    }
}

/// Sentinel in [`NetSim`]'s flat next-hop table: no route.
const NO_ROUTE: u32 = u32::MAX;

impl NetSim {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errors.
    #[must_use]
    pub fn new(cfg: NetConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the engine, validating the configuration: every link
    /// endpoint must exist, every switch may only route over links it
    /// owns, and — so a misrouted flow fails here instead of silently
    /// dropping every frame at forward time — every flow's path must
    /// actually reach its destination host, loop-free.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending flow, switch, or
    /// link on any of the inconsistencies above.
    pub fn try_new(mut cfg: NetConfig) -> Result<Self, ConfigError> {
        cfg.faults.validate()?;
        let n_switches = cfg.switches.len();
        for (i, l) in cfg.links.iter().enumerate() {
            for (end, name) in [(l.from, "from"), (l.to, "to")] {
                match end {
                    Endpoint::Host(h) if h >= cfg.hosts => {
                        return Err(ConfigError::new(
                            "links",
                            format!("link {i} {name} unknown host {h} (hosts: {})", cfg.hosts),
                        ));
                    }
                    Endpoint::Switch(s) if s >= n_switches => {
                        return Err(ConfigError::new(
                            "links",
                            format!("link {i} {name} unknown switch {s} (switches: {n_switches})"),
                        ));
                    }
                    _ => {}
                }
            }
        }
        let mut host_uplink = vec![None; cfg.hosts];
        for (i, l) in cfg.links.iter().enumerate() {
            if let Endpoint::Host(h) = l.from {
                host_uplink[h] = Some(i);
            }
        }
        // Everything that needed the full config is done; move the
        // switch specs out so each `SwitchState` owns its spec without
        // the old per-run `spec.clone()`. Port vectors are allocated at
        // their final size: growing them by doubling left enough heap
        // churn to cost about a third of the build at 2112 hosts.
        let mut n_ports = vec![0usize; n_switches];
        for l in &cfg.links {
            if let Endpoint::Switch(si) = l.from {
                n_ports[si] += 1;
            }
        }
        let mut switches: Vec<SwitchState> = std::mem::take(&mut cfg.switches)
            .into_iter()
            .zip(n_ports)
            .map(|(spec, n)| SwitchState {
                spec,
                ports: Vec::with_capacity(n),
                active_ports: vec![0; n.div_ceil(64)],
                last_pause: None,
            })
            .collect();
        // One pass over the links creates every switch's output ports
        // in link order and records each link's transmitter as
        // `(switch << 32) | port` (`u64::MAX` for host links): the route
        // check below reads this 8-byte word instead of the 40-byte
        // `LinkSpec`, which makes the build about a quarter faster at
        // 2112 hosts.
        let mut link_port = vec![u64::MAX; cfg.links.len()];
        for (li, l) in cfg.links.iter().enumerate() {
            let Endpoint::Switch(si) = l.from else { continue };
            let sw = &mut switches[si];
            link_port[li] = ((si as u64) << 32) | sw.ports.len() as u64;
            let cp = sw
                .spec
                .cps
                .iter()
                .find(|(link, _)| *link == li)
                .map(|(_, c)| CongestionPoint::new(*c));
            sw.ports.push(Port {
                link: li,
                queues: std::array::from_fn(|_| VecDeque::new()),
                backlog_by_class: [0.0; N_PRIORITIES],
                nonzero_classes: 0,
                rr_next: 0,
                busy: false,
                cp,
            });
        }
        // Flat next-hop table (first match wins, like the old linear
        // scan over the route list).
        let mut route_table = vec![NO_ROUTE; n_switches * cfg.hosts];
        for (si, sw) in switches.iter().enumerate() {
            for &(dst, link) in &sw.spec.routes {
                if dst >= cfg.hosts {
                    return Err(ConfigError::new(
                        "switches",
                        format!("switch {si} routes unknown host {dst} (hosts: {})", cfg.hosts),
                    ));
                }
                let owned = link_port.get(link).filter(|&&lp| lp >> 32 == si as u64);
                let Some(&lp) = owned else {
                    return Err(ConfigError::new(
                        "switches",
                        format!("switch {si} routes via link {link} it does not own"),
                    ));
                };
                let slot = &mut route_table[si * cfg.hosts + dst];
                if *slot == NO_ROUTE {
                    *slot = lp as u32;
                }
            }
        }
        // CSR of incoming links per switch.
        let mut incoming_off = vec![0u32; n_switches + 1];
        for l in &cfg.links {
            if let Endpoint::Switch(si) = l.to {
                incoming_off[si + 1] += 1;
            }
        }
        for si in 0..n_switches {
            incoming_off[si + 1] += incoming_off[si];
        }
        let mut incoming_links = vec![0u32; incoming_off[n_switches] as usize];
        let mut cursor: Vec<u32> = incoming_off[..n_switches].to_vec();
        for (li, l) in cfg.links.iter().enumerate() {
            if let Endpoint::Switch(si) = l.to {
                incoming_links[cursor[si] as usize] = li as u32;
                cursor[si] += 1;
            }
        }
        let mut pause_delay_off = Vec::with_capacity(n_switches + 1);
        let mut pause_delays: Vec<Duration> = Vec::new();
        pause_delay_off.push(0);
        for si in 0..n_switches {
            let first = pause_delays.len();
            for &li in &incoming_links[incoming_off[si] as usize..incoming_off[si + 1] as usize] {
                let delay = cfg.links[li as usize].delay;
                if !pause_delays[first..].contains(&delay) {
                    pause_delays.push(delay);
                }
            }
            pause_delay_off.push(pause_delays.len() as u32);
        }
        let mut rps = Vec::with_capacity(cfg.flows.len());
        let mut fixed = Vec::with_capacity(cfg.flows.len());
        let mut feedback_delay = Vec::with_capacity(cfg.flows.len());
        for (fi, flow) in cfg.flows.iter().enumerate() {
            if flow.src_host >= cfg.hosts || flow.dst_host >= cfg.hosts {
                return Err(ConfigError::new(
                    "flows",
                    format!(
                        "flow {fi} references host {} -> {} outside 0..{}",
                        flow.src_host, flow.dst_host, cfg.hosts
                    ),
                ));
            }
            if host_uplink[flow.src_host].is_none() {
                return Err(ConfigError::new(
                    "flows",
                    format!("flow {fi} source host {} has no uplink", flow.src_host),
                ));
            }
            rps.push(flow.rp.map(|c| ReactionPoint::new(c, flow.initial_rate)));
            fixed.push(flow.initial_rate);
            feedback_delay.push(walk_path(
                &cfg,
                &switches,
                &route_table,
                &host_uplink,
                fi,
                flow.src_host,
                flow.dst_host,
            )?);
        }

        let n_flows = cfg.flows.len();
        let n_links = cfg.links.len();
        let mut sim = Self {
            events: EventQueue::new(cfg.scheduler),
            now: Time::ZERO,
            switches,
            n_hosts: cfg.hosts,
            route_table,
            incoming_off,
            incoming_links,
            pause_delay_off,
            pause_delays,
            link_paused_until: vec![[Time::ZERO; N_PRIORITIES]; n_links],
            rps,
            flow_rates_fixed: fixed,
            stats: vec![FlowStats::default(); n_flows],
            switch_queues: vec![TimeSeries::new(); n_switches],
            pause_counts: vec![0; n_links],
            feedback_messages: 0,
            host_uplink,
            feedback_delay,
            jitter_state: (0..n_flows).map(|i| 0x9E37_79B9_7F4A_7C15 ^ (i as u64)).collect(),
            faults: FaultPlan::new(cfg.faults.clone()),
            fault_scratch: Vec::new(),
            telemetry: None,
            cfg,
        };
        let records =
            (sim.cfg.t_end.as_secs() / sim.cfg.record_interval.as_secs()).ceil() as usize + 2;
        for series in &mut sim.switch_queues {
            series.reserve(records);
        }
        for fi in 0..n_flows {
            sim.schedule(Time::from_nanos(fi as u64 + 1), Ev::HostSend(fi));
        }
        sim.schedule(Time::ZERO, Ev::Record);
        Ok(sim)
    }

    /// Attaches a telemetry sink; its shard comes back in the report.
    #[must_use]
    pub fn with_telemetry_sink(mut self, tel: Telemetry) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Detaches the telemetry sink mid-run — the flight recorder a
    /// supervised batch salvages from a panicked or demoted seed. The
    /// eventual report (if any) carries `None` afterwards.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    fn schedule(&mut self, time: Time, ev: Ev) {
        self.events.schedule(time, ev);
    }

    /// Emits a fault-injection telemetry event (counter + trace).
    fn note_fault(&mut self, class: FaultClass, target: u32) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.fault_injected(self.now.as_secs(), class, target);
        }
    }

    fn flow_rate(&self, fi: usize) -> f64 {
        match &self.rps[fi] {
            Some(rp) => rp.rate(),
            None => self.flow_rates_fixed[fi],
        }
    }

    /// Runs to completion.
    #[must_use]
    pub fn run(mut self) -> NetReport {
        while self.step() {}
        self.finish()
    }

    /// Advances by one event; `false` once the horizon is reached or the
    /// queue is drained. Exposed so supervised drivers (batch watchdogs,
    /// allocation gates) can interleave checks with the event loop.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.events.pop() else { return false };
        if time > self.cfg.t_end {
            return false;
        }
        self.now = time;
        self.dispatch(ev);
        true
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Events dispatched so far (the supervision budget currency). A
    /// PAUSE assertion adds one delivery event per distinct delay among
    /// the asserting switch's incoming links, not one per link.
    #[must_use]
    pub fn events_popped(&self) -> u64 {
        self.events.stats().popped
    }

    /// Finalises the report after [`step`](Self::step) returns `false`.
    #[must_use]
    pub fn finish(mut self) -> NetReport {
        for (fi, stat) in self.stats.iter_mut().enumerate() {
            stat.final_rate = match &self.rps[fi] {
                Some(rp) => rp.rate(),
                None => self.flow_rates_fixed[fi],
            };
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let st = self.events.stats();
            tel.scheduler_stats(
                st.scheduled,
                st.popped,
                st.cascades,
                st.overflow_parked,
                st.max_pending,
            );
        }
        NetReport {
            flows: self.stats,
            switch_queues: self.switch_queues,
            pause_counts: self.pause_counts,
            feedback_messages: self.feedback_messages,
            faults: self.faults.take_counts(),
            telemetry: self.telemetry.take(),
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::HostSend(fi) => self.on_host_send(fi),
            Ev::Arrive { link, frame } => self.on_arrive(link, frame),
            Ev::PortTx { switch, port } => self.on_port_tx(switch, port),
            Ev::Feedback { flow, msg } => {
                // A corrupted DA can point outside the flow set; such
                // misaddressed feedback dies on delivery.
                if let Some(Some(rp)) = self.rps.get_mut(flow) {
                    rp.on_bcn(&msg);
                    self.feedback_messages += 1;
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.bcn_message(self.now.as_secs(), msg.sigma, flow as u32);
                    }
                }
            }
            Ev::PauseAt { switch, delay, priority, hold } => {
                // `now` is the assertion time plus `delay`: the PAUSE
                // frame's arrival on each of these links.
                let until = self.now + hold;
                let si = switch as usize;
                for k in self.incoming_off[si] as usize..self.incoming_off[si + 1] as usize {
                    let li = self.incoming_links[k] as usize;
                    if self.cfg.links[li].delay != delay {
                        continue;
                    }
                    let slots = &mut self.link_paused_until[li];
                    match priority {
                        Some(cls) => {
                            let slot = &mut slots[cls as usize];
                            *slot = (*slot).max(until);
                        }
                        None => {
                            for slot in slots {
                                *slot = (*slot).max(until);
                            }
                        }
                    }
                }
            }
            Ev::Record => {
                for (si, sw) in self.switches.iter().enumerate() {
                    let backlog = sw.total_backlog();
                    self.switch_queues[si].push(self.now, backlog);
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.queue_sample_entity(self.now.as_secs(), si as u32, backlog);
                    }
                }
                if self.telemetry.is_some() {
                    for fi in 0..self.cfg.flows.len() {
                        let rate = self.flow_rate(fi);
                        let now = self.now.as_secs();
                        if let Some(tel) = self.telemetry.as_mut() {
                            tel.series_sample(SeriesKind::FlowRate, fi as u32, now, rate);
                        }
                    }
                }
                if self.now + self.cfg.record_interval <= self.cfg.t_end {
                    self.schedule(self.now + self.cfg.record_interval, Ev::Record);
                }
            }
        }
    }

    fn on_host_send(&mut self, fi: usize) {
        let flow = &self.cfg.flows[fi];
        let cls = flow.priority as usize;
        let uplink = self.host_uplink[flow.src_host].expect("validated in new");
        if self.link_paused_until[uplink][cls] > self.now {
            let resume = self.link_paused_until[uplink][cls];
            self.schedule(resume, Ev::HostSend(fi));
            return;
        }
        let rrt = self.rps[fi].as_ref().and_then(ReactionPoint::associated_cp);
        let frame = NetFrame { flow: fi, bits: self.cfg.frame_bits, rrt, priority: flow.priority };
        let delay = Duration::serialization(self.cfg.frame_bits, self.cfg.links[uplink].capacity)
            + self.cfg.links[uplink].delay;
        self.schedule(self.now + delay, Ev::Arrive { link: uplink, frame });
        // Deterministic +/-2% pacing jitter (per-flow LCG) breaks the
        // phase-locking a perfectly periodic ensemble would suffer at a
        // full FIFO (where the same flow's frame would be the one dropped
        // every cycle) — the discrete analogue of real NIC clock skew.
        let jitter = {
            let st = &mut self.jitter_state[fi];
            *st =
                st.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            0.98 + 0.04 * ((*st >> 11) as f64 / (1u64 << 53) as f64)
        };
        let gap_secs = self.cfg.frame_bits / self.flow_rate(fi).max(1.0) * jitter;
        self.schedule(self.now + Duration::from_secs(gap_secs), Ev::HostSend(fi));
    }

    fn on_arrive(&mut self, link: usize, frame: NetFrame) {
        // Per-link wire loss: a multi-hop frame faces one draw per hop.
        if self.faults.is_active() && self.faults.data_frame_lost() {
            self.note_fault(FaultClass::DataLoss, link as u32);
            return;
        }
        match self.cfg.links[link].to {
            Endpoint::Host(h) => {
                if h == self.cfg.flows[frame.flow].dst_host {
                    self.stats[frame.flow].delivered_bits += frame.bits;
                }
            }
            Endpoint::Switch(si) => self.switch_ingress(si, frame),
        }
    }

    fn switch_ingress(&mut self, si: usize, frame: NetFrame) {
        let dst = self.cfg.flows[frame.flow].dst_host;
        // One indexed load; construction-time validation guarantees a
        // route exists for every flow's destination, but corrupted
        // feedback cannot reach here (data frames only), so the sentinel
        // check is pure defence in depth.
        let pi = self.route_table[si * self.n_hosts + dst];
        if pi == NO_ROUTE {
            self.stats[frame.flow].dropped_frames += 1;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.frame_dropped(self.now.as_secs(), frame.flow as u32);
            }
            return;
        }
        let pi = pi as usize;
        let sw = &mut self.switches[si];
        if sw.ports[pi].backlog_bits() + frame.bits > sw.spec.buffer_bits {
            self.stats[frame.flow].dropped_frames += 1;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.frame_dropped(self.now.as_secs(), frame.flow as u32);
            }
            return;
        }
        // Enqueue into the frame's priority class.
        let cls = frame.priority as usize;
        let port_backlog;
        let class_backlog;
        let mut feedback = None;
        {
            sw.ports[pi].backlog_by_class[cls] += frame.bits;
            sw.backlog_changed(pi, cls);
            let port = &mut sw.ports[pi];
            port_backlog = port.backlog_bits();
            class_backlog = port.backlog_by_class[cls];
            let df =
                DataFrame { src: SourceId(frame.flow as u32), bits: frame.bits, rrt: frame.rrt };
            if let Some(cp) = &mut port.cp {
                feedback = cp.on_arrival(&df, port_backlog);
            }
            port.queues[cls].push_back(frame);
        }
        if let Some(msg) = feedback {
            let mut injected = std::mem::take(&mut self.fault_scratch);
            let fate = self.faults.feedback_fate_into(&msg, &mut injected);
            for &class in &injected {
                self.note_fault(class, msg.dst.0);
            }
            injected.clear();
            self.fault_scratch = injected;
            if let FeedbackFate::Deliver { msg, extra } = fate {
                let flow = msg.dst.0 as usize;
                // Corruption can re-address the message beyond the flow
                // set; keep it schedulable and let delivery discard it.
                let delay = self.feedback_delay.get(flow).copied().unwrap_or(Duration::ZERO);
                self.schedule(self.now + delay + extra, Ev::Feedback { flow, msg });
            }
        }
        // PAUSE when the relevant backlog crosses the threshold: under
        // PFC the congested class's backlog pauses only that class.
        if self.cfg.pause.enabled {
            if self.cfg.pause.per_priority {
                if class_backlog > self.switches[si].spec.qsc_bits {
                    self.assert_pause(si, Some(cls as u8));
                }
            } else if port_backlog > self.switches[si].spec.qsc_bits {
                self.assert_pause(si, None);
            }
        }
        // Kick the port if idle.
        if !self.switches[si].ports[pi].busy {
            self.switches[si].ports[pi].busy = true;
            self.schedule(self.now, Ev::PortTx { switch: si, port: pi });
        }
    }

    fn assert_pause(&mut self, si: usize, priority: Option<u8>) {
        let can_fire = match self.switches[si].last_pause {
            Some(t) => self.now.saturating_sub(t) >= self.cfg.pause.hold,
            None => true,
        };
        if !can_fire {
            return;
        }
        self.switches[si].last_pause = Some(self.now);
        // Pause every link that terminates at this switch (precomputed
        // in `new` — this path allocates nothing).
        let (hold, stormed) = self.faults.pause_hold(self.cfg.pause.hold);
        if stormed {
            self.note_fault(FaultClass::PauseStorm, si as u32);
        }
        for k in self.incoming_off[si] as usize..self.incoming_off[si + 1] as usize {
            let li = self.incoming_links[k] as usize;
            self.pause_counts[li] += 1;
            // Each paused link gets its own PAUSE-episode span, so an
            // upstream cascade renders as a burst of sibling bands.
            if let Some(tel) = self.telemetry.as_mut() {
                let deliver = self.now + self.cfg.links[li].delay;
                tel.pause(deliver.as_secs(), (deliver + hold).as_secs(), li as u32);
            }
        }
        // One delivery event per distinct delay rather than per link:
        // the links sharing a delay receive the PAUSE at the same instant
        // and their updates commute, and events of one assertion take
        // consecutive sequence numbers, so no other event can sort
        // between them. Event order is therefore unchanged.
        for k in self.pause_delay_off[si] as usize..self.pause_delay_off[si + 1] as usize {
            let delay = self.pause_delays[k];
            let switch = si as u32;
            self.schedule(self.now + delay, Ev::PauseAt { switch, delay, priority, hold });
        }
    }

    fn on_port_tx(&mut self, si: usize, pi: usize) {
        let link = self.switches[si].ports[pi].link;
        // Round-robin over classes that have frames and are not paused.
        let paused = self.link_paused_until[link];
        let frame = {
            let port = &mut self.switches[si].ports[pi];
            let mut chosen = None;
            let mut earliest_resume: Option<Time> = None;
            for off in 0..N_PRIORITIES {
                let cls = (port.rr_next + off) % N_PRIORITIES;
                if port.queues[cls].is_empty() {
                    continue;
                }
                if paused[cls] > self.now {
                    earliest_resume = Some(match earliest_resume {
                        Some(t) => t.min(paused[cls]),
                        None => paused[cls],
                    });
                    continue;
                }
                chosen = Some(cls);
                break;
            }
            match chosen {
                Some(cls) => {
                    port.rr_next = (cls + 1) % N_PRIORITIES;
                    port.queues[cls].pop_front()
                }
                None => {
                    if let Some(resume) = earliest_resume {
                        // Everything pending is paused: retry at resume.
                        self.schedule(resume, Ev::PortTx { switch: si, port: pi });
                        return;
                    }
                    port.busy = false;
                    return;
                }
            }
        };
        let Some(frame) = frame else {
            self.switches[si].ports[pi].busy = false;
            return;
        };
        let bits = frame.bits;
        let cls = frame.priority as usize;
        self.switches[si].ports[pi].backlog_by_class[cls] -= bits;
        self.switches[si].backlog_changed(pi, cls);
        if let Some(cp) = &mut self.switches[si].ports[pi].cp {
            cp.on_departure(bits);
        }
        // Link flaps defer the transmission start past the down window.
        let mut start = self.now;
        if self.faults.is_active() {
            if let Some(up) = self.faults.link_up_at(self.now) {
                self.note_fault(FaultClass::LinkFlap, link as u32);
                start = up;
            }
        }
        let ser = Duration::serialization(bits, self.cfg.links[link].capacity);
        let delay = ser + self.cfg.links[link].delay;
        self.schedule(start + delay, Ev::Arrive { link, frame });
        self.schedule(start + ser, Ev::PortTx { switch: si, port: pi });
    }
}

/// Walks a flow's forward path through the next-hop tables, validating
/// it delivers to `dst_host` within a loop-free number of hops, and
/// returns the summed link delay (used as the feedback delay
/// approximation).
fn walk_path(
    cfg: &NetConfig,
    switches: &[SwitchState],
    route_table: &[u32],
    host_uplink: &[Option<usize>],
    fi: usize,
    src_host: usize,
    dst_host: usize,
) -> Result<Duration, ConfigError> {
    let uplink = host_uplink[src_host].expect("caller checked the source uplink");
    let mut delay = cfg.links[uplink].delay;
    let mut at = cfg.links[uplink].to;
    for _ in 0..switches.len() + 1 {
        match at {
            Endpoint::Host(h) => {
                if h == dst_host {
                    return Ok(delay);
                }
                return Err(ConfigError::new(
                    "flows",
                    format!("flow {fi} ({src_host} -> {dst_host}) is routed to host {h} instead"),
                ));
            }
            Endpoint::Switch(si) => {
                let port = route_table[si * cfg.hosts + dst_host];
                if port == NO_ROUTE {
                    return Err(ConfigError::new(
                        "flows",
                        format!(
                            "flow {fi} ({src_host} -> {dst_host}) is unroutable: \
                             switch {si} has no route to host {dst_host}"
                        ),
                    ));
                }
                let link = switches[si].ports[port as usize].link;
                delay = delay + cfg.links[link].delay;
                at = cfg.links[link].to;
            }
        }
    }
    Err(ConfigError::new(
        "flows",
        format!("flow {fi} ({src_host} -> {dst_host}) never reaches its destination: routing loop"),
    ))
}

/// Builds the paper-Introduction victim scenario:
///
/// ```text
/// culprits c_0..c_{n-1} ─┐
///                        ├─ S1 ──trunk──> S2 ──bottleneck──> sink_c
/// victim v ──────────────┘                 └────victim_link──> sink_v
/// ```
///
/// Culprits all send to `sink_c` behind the quarter-capacity bottleneck
/// (offering twice its capacity but only half the trunk's, so the trunk
/// itself is uncongested); the victim sends to `sink_v` over an
/// uncongested port but shares the trunk. Returns
/// `(config, victim flow index)`.
///
/// `bcn` supplies the congestion-point/reaction-point pair to install on
/// the bottleneck port and culprit/victim sources; `None` runs
/// unmanaged sources (PAUSE-only or drop-tail per `pause`).
#[must_use]
pub fn victim_topology(
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    let n_hosts = n_culprits + 3; // culprits + victim + two sinks
    let victim_host = n_culprits;
    let sink_c = n_culprits + 1;
    let sink_v = n_culprits + 2;

    let mut links = Vec::new();
    // Access links (hosts -> S1), generous capacity.
    for h in 0..=n_culprits {
        links.push(LinkSpec {
            from: Endpoint::Host(h),
            to: Endpoint::Switch(0),
            capacity: 4.0 * trunk_capacity,
            delay: prop,
        });
    }
    // Trunk S1 -> S2.
    let trunk = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(0),
        to: Endpoint::Switch(1),
        capacity: trunk_capacity,
        delay: prop,
    });
    // Bottleneck S2 -> sink_c at a quarter of the trunk.
    let bottleneck = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(1),
        to: Endpoint::Host(sink_c),
        capacity: 0.25 * trunk_capacity,
        delay: prop,
    });
    // Victim egress S2 -> sink_v at full trunk rate.
    let victim_link = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(1),
        to: Endpoint::Host(sink_v),
        capacity: trunk_capacity,
        delay: prop,
    });

    let buffer = 60.0 * frame_bits;
    let s1 = SwitchSpec {
        buffer_bits: buffer,
        qsc_bits: 0.6 * buffer,
        routes: vec![(sink_c, trunk), (sink_v, trunk)],
        cps: Vec::new(),
    };
    let s2_cps = match &bcn {
        Some((cp, _)) => vec![(bottleneck, CpConfig { cpid: CpId(2), ..*cp })],
        None => Vec::new(),
    };
    let s2 = SwitchSpec {
        buffer_bits: buffer,
        qsc_bits: 0.6 * buffer,
        routes: vec![(sink_c, bottleneck), (sink_v, victim_link)],
        cps: s2_cps,
    };

    let mut flows = Vec::new();
    for h in 0..n_culprits {
        flows.push(NetFlow {
            src_host: h,
            dst_host: sink_c,
            // Culprits collectively offer half the trunk: 2x the
            // bottleneck, but leaving the trunk itself uncongested.
            initial_rate: 0.5 * trunk_capacity / n_culprits as f64,
            rp: bcn.as_ref().map(|(_, rp)| *rp),
            priority: 0,
        });
    }
    let victim = flows.len();
    flows.push(NetFlow {
        src_host: victim_host,
        dst_host: sink_v,
        initial_rate: 0.25 * trunk_capacity,
        rp: bcn.as_ref().map(|(_, rp)| *rp),
        priority: 0,
    });

    let cfg = NetConfig {
        hosts: n_hosts,
        switches: vec![s1, s2],
        links,
        flows,
        frame_bits,
        t_end: Time::from_secs(t_end),
        record_interval: Duration::from_secs(t_end / 2000.0),
        pause,
        faults: FaultConfig::none(),
        scheduler: Scheduler::default(),
    };
    (cfg, victim)
}

/// Builds a three-switch chain that lets PAUSE cascade two hops
/// upstream:
///
/// ```text
/// culprits ──┐
///            ├─ S0 ──trunk0── S1 ──trunk1── S2 ──bottleneck──> sink_c
/// victim ────┘                                └──victim_link──> sink_v
/// ```
///
/// Culprits and the victim all enter at S0, two switches away from the
/// hotspot (S2's quarter-rate leaf port). Under PAUSE the congestion
/// rolls back hop by hop — S2 pauses trunk1, S1's backlog pauses
/// trunk0, S0's backlog pauses every access link — and the victim
/// starves despite its own egress being idle. Returns `(config, victim
/// flow index)`.
#[must_use]
pub fn parking_lot_topology(
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    let deep_victim_host = n_culprits;
    let sink_c = n_culprits + 1;
    let sink_v = n_culprits + 2;
    let n_hosts = n_culprits + 3;

    let mut links = Vec::new();
    // Culprits and the victim all enter at S0.
    for h in 0..=n_culprits {
        links.push(LinkSpec {
            from: Endpoint::Host(h),
            to: Endpoint::Switch(0),
            capacity: 4.0 * trunk_capacity,
            delay: prop,
        });
    }
    let _ = deep_victim_host;
    let trunk0 = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(0),
        to: Endpoint::Switch(1),
        capacity: trunk_capacity,
        delay: prop,
    });
    let trunk1 = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(1),
        to: Endpoint::Switch(2),
        capacity: trunk_capacity,
        delay: prop,
    });
    let bottleneck = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(2),
        to: Endpoint::Host(sink_c),
        capacity: 0.25 * trunk_capacity,
        delay: prop,
    });
    let victim_link = links.len();
    links.push(LinkSpec {
        from: Endpoint::Switch(2),
        to: Endpoint::Host(sink_v),
        capacity: trunk_capacity,
        delay: prop,
    });

    let buffer = 60.0 * frame_bits;
    let mk_switch = |routes: Vec<(usize, usize)>, cps: Vec<(usize, CpConfig)>| SwitchSpec {
        buffer_bits: buffer,
        qsc_bits: 0.6 * buffer,
        routes,
        cps,
    };
    let s0 = mk_switch(vec![(sink_v, trunk0), (sink_c, trunk0)], Vec::new());
    let s1 = mk_switch(vec![(sink_v, trunk1), (sink_c, trunk1)], Vec::new());
    let s2_cps = match &bcn {
        Some((cp, _)) => vec![(bottleneck, CpConfig { cpid: CpId(3), ..*cp })],
        None => Vec::new(),
    };
    let s2 = mk_switch(vec![(sink_c, bottleneck), (sink_v, victim_link)], s2_cps);

    let mut flows = Vec::new();
    for h in 0..n_culprits {
        flows.push(NetFlow {
            src_host: h,
            dst_host: sink_c,
            initial_rate: 0.5 * trunk_capacity / n_culprits as f64,
            rp: bcn.as_ref().map(|(_, rp)| *rp),
            priority: 0,
        });
    }
    let deep_victim = flows.len();
    flows.push(NetFlow {
        src_host: deep_victim_host,
        dst_host: sink_v,
        initial_rate: 0.25 * trunk_capacity,
        rp: bcn.as_ref().map(|(_, rp)| *rp),
        priority: 0,
    });

    let cfg = NetConfig {
        hosts: n_hosts,
        switches: vec![s0, s1, s2],
        links,
        flows,
        frame_bits,
        t_end: Time::from_secs(t_end),
        record_interval: Duration::from_secs(t_end / 2000.0),
        pause,
        faults: FaultConfig::none(),
        scheduler: Scheduler::default(),
    };
    (cfg, deep_victim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRUNK: f64 = 1.0e9;
    const FRAME: f64 = 8_000.0;

    fn bcn_pair() -> (CpConfig, RpConfig) {
        // Calibrated like sim::from_fluid for the bottleneck at TRUNK/2.
        let q0 = 10.0 * FRAME;
        let cp = CpConfig {
            cpid: CpId(2),
            q0_bits: q0,
            qsc_bits: 50.0 * FRAME,
            w: 2.0 / FRAME * 100.0,
            sample_every: 5,
            fb_quant: None,
            gate_positive: false,
        };
        let rp = RpConfig {
            gi: 0.5,
            gd: 1.0 / 512.0,
            ru: 1.0e4,
            gain_scale: FRAME * 4.0 / (0.2 * TRUNK),
            r_min: TRUNK * 1e-6,
            r_max: TRUNK,
        };
        (cp, rp)
    }

    fn run_victim(
        pause_enabled: bool,
        bcn: Option<(CpConfig, RpConfig)>,
    ) -> (NetReport, usize, f64) {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: pause_enabled,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, bcn);
        (NetSim::new(cfg).run(), victim, t_end)
    }

    #[test]
    fn droptail_drops_culprits_but_victim_flows() {
        let (report, victim, t_end) = run_victim(false, None);
        let culprit_drops: u64 = report.flows[..victim].iter().map(|f| f.dropped_frames).sum();
        assert!(culprit_drops > 0, "culprits must overflow the bottleneck");
        // Victim path is uncongested: near-full throughput, no drops.
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "victim throughput {vt}");
        assert_eq!(report.flows[victim].dropped_frames, 0);
    }

    #[test]
    fn pause_spreads_congestion_to_the_victim() {
        let (report, victim, t_end) = run_victim(true, None);
        // PAUSE keeps the loss down but stalls the shared trunk: the
        // innocent victim loses throughput (head-of-line blocking).
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "victim should be collateral damage under PAUSE: {vt}");
        // And PAUSE propagated upstream: both S2's and S1's ingress links
        // got paused.
        assert!(report.pause_counts.iter().sum::<u64>() > 0);
        let trunk_pauses = report.pause_counts[5]; // trunk link index
        assert!(trunk_pauses > 0, "trunk never paused: {:?}", report.pause_counts);
    }

    #[test]
    fn bcn_shields_the_victim() {
        let (report, victim, t_end) = run_victim(true, Some(bcn_pair()));
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "BCN should shield the victim: {vt} vs 0.25 target");
        // Culprit sources got regulated towards the bottleneck fair
        // share (TRUNK/8 each).
        assert!(report.feedback_messages > 0);
        for f in &report.flows[..victim] {
            assert!(f.final_rate < 0.3 * TRUNK, "culprit not regulated: {}", f.final_rate);
        }
    }

    #[test]
    fn conservation_per_flow() {
        let (report, victim, t_end) = run_victim(false, None);
        for (i, f) in report.flows.iter().enumerate() {
            // Delivered cannot exceed offered.
            let offered = self_offered(i, victim, t_end);
            assert!(
                f.delivered_bits <= offered * 1.01 + FRAME,
                "flow {i}: delivered {} > offered {offered}",
                f.delivered_bits
            );
        }
    }

    fn self_offered(i: usize, victim: usize, t_end: f64) -> f64 {
        let rate = if i == victim { 0.25 * TRUNK } else { 0.5 * TRUNK / 4.0 };
        rate * t_end
    }

    #[test]
    fn determinism() {
        let (a, _, _) = run_victim(true, Some(bcn_pair()));
        let (b, _, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.pause_counts, b.pause_counts);
    }

    #[test]
    fn rejects_unroutable_flow_at_construction() {
        // Remove S1's route to sink_c: the culprit flows become
        // unroutable and construction must say so (previously every
        // frame was silently dropped at forward time instead).
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        cfg.switches[0].routes.retain(|(d, _)| *d != sink_c);
        let err = NetSim::try_new(cfg).expect_err("must reject the unroutable flow");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("unroutable"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_misdelivering_route_at_construction() {
        // Point S2's sink_c route at the victim sink: the flow "arrives"
        // somewhere, just not at its destination.
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        let victim_link = cfg.links.len() - 1;
        for r in &mut cfg.switches[1].routes {
            if r.0 == sink_c {
                r.1 = victim_link;
            }
        }
        let err = NetSim::try_new(cfg).expect_err("must reject the misdelivering route");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("instead"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_routing_loop_at_construction() {
        // S1 and S2 bounce sink_c traffic between each other forever.
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        let back = cfg.links.len();
        cfg.links.push(LinkSpec {
            from: Endpoint::Switch(1),
            to: Endpoint::Switch(0),
            capacity: TRUNK,
            delay: Duration::from_secs(1e-6),
        });
        for r in &mut cfg.switches[1].routes {
            if r.0 == sink_c {
                r.1 = back;
            }
        }
        let err = NetSim::try_new(cfg).expect_err("must reject the routing loop");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("loop"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_route_over_foreign_link() {
        let (base, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let n_links = base.links.len();
        let bottleneck = n_links - 2;
        let trunk = n_links - 3;
        // (switch, route slot, claimed link): S1 over S2's bottleneck,
        // S2 over S1's trunk, an access link no switch transmits on, and
        // link indices past the end of the link list.
        let cases =
            [(0, 0, bottleneck), (1, 0, trunk), (0, 1, 0), (0, 0, n_links), (1, 1, usize::MAX)];
        for (si, slot, link) in cases {
            let mut cfg = base.clone();
            cfg.switches[si].routes[slot].1 = link;
            let err = NetSim::try_new(cfg).expect_err("must reject the foreign link");
            assert_eq!(err.field, "switches");
            assert!(err.reason.contains("does not own"), "unexpected reason: {}", err.reason);
        }
    }

    #[test]
    #[should_panic(expected = "no uplink")]
    fn rejects_source_without_uplink() {
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        // Point a flow at a sink host (no uplink) as source.
        cfg.flows[0].src_host = cfg.hosts - 1;
        let _ = NetSim::new(cfg);
    }

    #[test]
    fn pfc_isolates_priority_classes() {
        // Same victim scenario, but the victim rides priority class 1
        // while the culprits congest class 0. Per-priority PAUSE (PFC)
        // pauses only the storage class: the victim keeps its full
        // throughput, and the fabric stays lossless — the cross-class
        // fix 802.1Qbb provides without any end-to-end control loop.
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: true,
        };
        let (mut cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        cfg.flows[victim].priority = 1;
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "PFC should isolate the victim's class: {vt}");
        let total_drops: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
        assert_eq!(total_drops, 0, "PFC run must stay lossless");
        assert!(report.pause_counts.iter().sum::<u64>() > 0, "culprit class was paused");
    }

    #[test]
    fn pfc_does_not_help_within_a_class() {
        // Victim in the SAME class as the culprits: PFC degenerates to
        // plain PAUSE for that class and the victim still starves — the
        // within-class gap that motivates BCN.
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: true,
        };
        let (cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "same-class victim should still starve: {vt}");
    }

    #[test]
    fn pause_cascades_two_hops_in_the_parking_lot() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) =
            parking_lot_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        let trunk0 = 5; // per the builder's link layout with 4 culprits
        let trunk1 = 6;
        let report = NetSim::new(cfg).run();
        // The pause tree reached both trunks: congestion rolled back from
        // S2 to S1 to S0 exactly as the paper's introduction describes.
        assert!(report.pause_counts[trunk1] > 0, "{:?}", report.pause_counts);
        assert!(report.pause_counts[trunk0] > 0, "{:?}", report.pause_counts);
        // And the deep victim (two switches from the hotspot) starves.
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "deep victim should starve: {vt}");
    }

    #[test]
    fn bcn_protects_the_deep_victim_in_the_parking_lot() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) = parking_lot_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "BCN should shield the deep victim: {vt}");
        let total_drops: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
        assert_eq!(total_drops, 0, "BCN+PAUSE must stay lossless");
    }

    #[test]
    fn switch_queue_series_recorded() {
        let (report, _, _) = run_victim(false, None);
        assert_eq!(report.switch_queues.len(), 2);
        assert!(report.switch_queues[1].len() > 100);
        // S2 (owning the bottleneck) builds more backlog than S1.
        assert!(report.switch_queues[1].max() >= report.switch_queues[0].max());
    }

    #[test]
    fn telemetry_captures_queues_rates_and_pause_spans() {
        use telemetry::{Event, SpanKind, TelemetryLevel};
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        let n_flows = cfg.flows.len();
        let report = NetSim::new(cfg)
            .with_telemetry_sink(telemetry::Telemetry::new(TelemetryLevel::Full))
            .run();
        let tel = report.telemetry.as_ref().expect("sink attached");
        // Every switch has a queue-depth series, every flow a rate series.
        for si in 0..2u32 {
            let s = tel.series.get(SeriesKind::QueueDepth, si).expect("switch series");
            assert!(!s.is_empty(), "switch {si} series empty");
        }
        for fi in 0..n_flows as u32 {
            assert!(tel.series.get(SeriesKind::FlowRate, fi).is_some(), "flow {fi} series");
        }
        // PAUSE fired (the victim run pauses the trunk) and each
        // assertion produced a span pair in the trace.
        let pauses: u64 = report.pause_counts.iter().sum();
        assert!(pauses > 0);
        let spans = tel
            .trace
            .iter()
            .filter(|e| matches!(e, Event::SpanBegin { kind: SpanKind::PauseEpisode, .. }))
            .count() as u64;
        assert_eq!(spans, pauses, "one PAUSE span per assertion");
        assert_eq!(tel.metrics.counter_by_name("sim.pause_events"), Some(pauses));
        assert_eq!(tel.metrics.counter_by_name("sim.bcn_messages"), Some(report.feedback_messages));
        // Scheduler stats were flushed into the shard.
        assert!(tel.metrics.counter_by_name("scheduler.events_popped").is_some_and(|v| v > 0));
        // An untelemetered run is unaffected (same trajectory).
        let (plain, v2, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(v2, victim);
        assert_eq!(plain.flows, report.flows, "telemetry must not perturb the run");
        assert_eq!(plain.pause_counts, report.pause_counts);
    }

    #[test]
    fn fault_free_runs_record_no_faults() {
        let (report, _, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(report.faults, FaultCounts::default());
    }

    #[test]
    fn feedback_loss_breaks_bcn_protection() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (mut cfg, _victim) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        cfg.faults.feedback_loss = 1.0;
        let report = NetSim::new(cfg).run();
        assert_eq!(report.feedback_messages, 0, "all feedback must be dropped");
        assert!(report.faults.feedback_dropped > 0);
        // Without feedback the culprit sources never slow down.
        let culprit_rate = report.flows[0].final_rate;
        assert!(culprit_rate >= 0.125 * TRUNK * 0.99, "culprit regulated anyway: {culprit_rate}");
    }

    #[test]
    fn faulty_net_runs_are_deterministic() {
        let mk = || {
            let pause = PauseConfig {
                enabled: true,
                hold: Duration::from_secs(40.0 * FRAME / TRUNK),
                per_priority: false,
            };
            let (mut cfg, _) = victim_topology(
                4,
                TRUNK,
                FRAME,
                Duration::from_secs(1e-6),
                0.1,
                pause,
                Some(bcn_pair()),
            );
            cfg.faults.seed = 5;
            cfg.faults.feedback_loss = 0.3;
            cfg.faults.data_loss = 0.01;
            cfg
        };
        let a = NetSim::new(mk()).run();
        let b = NetSim::new(mk()).run();
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.total() > 0, "faults were actually injected");
    }

    /// Every injected fault reaches telemetry on both engines: at
    /// `Summary`, each `faults.<class>` counter equals the run's
    /// `FaultCounts` tally for that class, and every class fires.
    #[test]
    fn fault_telemetry_counters_match_fault_counts_on_both_engines() {
        use crate::sim::{Control, SimConfig, Simulation};
        use telemetry::TelemetryLevel;
        fn check(engine: &str, tel: &Telemetry, counts: &FaultCounts) {
            for class in FaultClass::ALL {
                let tally = match class {
                    FaultClass::FeedbackDrop => counts.feedback_dropped,
                    FaultClass::FeedbackCorrupt => {
                        counts.feedback_corrupted + counts.feedback_corrupt_lost
                    }
                    FaultClass::FeedbackDelay => counts.feedback_delayed,
                    FaultClass::FeedbackReorder => counts.feedback_reordered,
                    FaultClass::DataLoss => counts.data_frames_lost,
                    FaultClass::LinkFlap => counts.link_flap_deferrals,
                    FaultClass::PauseStorm => counts.pause_storms,
                };
                let name = format!("faults.{}", class.name());
                assert!(tally > 0, "{engine}: no {name} fault fired");
                assert_eq!(tel.metrics.counter_by_name(&name), Some(tally), "{engine}: {name}");
            }
        }
        let faults = FaultConfig {
            seed: 11,
            feedback_loss: 0.2,
            feedback_corrupt: 0.2,
            feedback_extra_delay: Duration::from_secs(1e-6),
            feedback_reorder: 0.2,
            reorder_window: Duration::from_secs(1e-5),
            data_loss: 0.01,
            data_burst_len: 2,
            link_flap_period: Duration::from_secs(0.01),
            link_flap_down: Duration::from_secs(0.001),
            pause_storm: 0.5,
            pause_storm_factor: 2.0,
        };

        // Dumbbell: sources start at a third of capacity each and the
        // PAUSE threshold sits just above q0, so PAUSE fires.
        let mut cfg = SimConfig::fluid_validation_default();
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 3.0;
        }
        if let Control::Bcn { cp, .. } = &mut cfg.control {
            cp.qsc_bits = cp.q0_bits * 1.5;
        }
        cfg.t_end = Time::from_secs(0.2);
        cfg.faults = faults.clone();
        let report = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Summary)).run();
        check("dumbbell", report.telemetry.as_ref().unwrap(), &report.metrics.faults);

        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (mut cfg, _) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            pause,
            Some(bcn_pair()),
        );
        cfg.faults = faults;
        let report =
            NetSim::new(cfg).with_telemetry_sink(Telemetry::new(TelemetryLevel::Summary)).run();
        check("fabric", report.telemetry.as_ref().unwrap(), &report.faults);
    }
}
