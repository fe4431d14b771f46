//! Parameterised scale-out topology generator: k-ary fat-trees and
//! leaf–spine fabrics compiled down to [`NetConfig`].
//!
//! The hand-wired scenarios in [`crate::net`] top out at a few switches
//! and tens of flows — exactly the shallow-backlog regime where the
//! timing wheel has nothing to win. The congestion phenomena the paper
//! analyses (PAUSE trees, victim flows, Theorem-1 buffer headroom) only
//! get interesting at data-center scale, so this module generates the
//! fabrics to run them on:
//!
//! * **k-ary fat-tree** (`k` even): `k` pods of `k/2` edge and `k/2`
//!   aggregation switches over `(k/2)²` cores, `k³/4` hosts, every link
//!   at the same speed (rearrangeably non-blocking).
//! * **leaf–spine**: `leaves × spines` two-tier Clos with
//!   `hosts_per_leaf` hosts per leaf and a configurable oversubscription
//!   factor (uplink capacity = `hosts_per_leaf · link / (spines ·
//!   oversub)`).
//!
//! Routing is deterministic single-path: the next hop for a destination
//! is selected by destination index (`dst % fanout` at each up-stage),
//! which spreads load like ECMM hashing but keeps every run
//! reproducible. Each switch's route table covers *every* host, so the
//! compiled config passes the engine's full-reachability validation by
//! construction (see `NetSim::try_new`).
//!
//! Per-hop PFC thresholds follow the Theorem-1 recipe, summed over a
//! switch's ingress ports: each incoming link contributes its
//! `BDP + 2·MTU` (round-trip bandwidth–delay product plus two maximum
//! frames — the in-flight data a PAUSE cannot recall), the XOFF point
//! `qsc` is that sum, and the per-port buffer doubles it so a full
//! post-PAUSE round from every ingress still fits above the threshold.
//! The compiled fabrics run lossless under PAUSE by construction
//! (verified by the incast tests below at 4× overload).
//!
//! For irregular fabrics (the victim scenarios), [`auto_routes`] derives
//! the same dense route tables from the link list alone: per-destination
//! reverse BFS with a deterministic lowest-link-index tie-break.

use crate::cp::CpConfig;
use crate::error::ConfigError;
use crate::faults::FaultConfig;
use crate::net::{Endpoint, LinkSpec, NetConfig, NetFlow, PauseConfig, SwitchSpec};
use crate::rp::RpConfig;
use crate::sched::Scheduler;
use crate::time::{Duration, Time};

/// Which fabric family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// A k-ary fat-tree (`k` even, `k ≥ 4`): `k³/4` hosts.
    FatTree {
        /// The arity: pods, and ports per switch.
        k: usize,
    },
    /// A two-tier leaf–spine Clos.
    LeafSpine {
        /// Number of leaf (top-of-rack) switches.
        leaves: usize,
        /// Number of spine switches.
        spines: usize,
        /// Hosts attached to each leaf.
        hosts_per_leaf: usize,
    },
}

/// A parameterised fabric: family plus link speeds and delays.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSpec {
    /// The fabric family and its dimensions.
    pub kind: TopoKind,
    /// Host access-link capacity in bit/s (fat-tree fabric links run at
    /// the same speed; leaf–spine uplinks derive from the
    /// oversubscription factor).
    pub link_bps: f64,
    /// Leaf–spine uplink oversubscription factor (`1.0` =
    /// non-blocking); ignored by fat-trees, whose uniform link speed
    /// already fixes the ratio.
    pub oversub: f64,
    /// Per-link propagation delay.
    pub delay: Duration,
    /// Data frame (MTU) size in bits; enters the PFC threshold
    /// derivation.
    pub frame_bits: f64,
}

impl TopoSpec {
    /// A fat-tree with 1 Gbit/s links, 1 µs hops, 8 kbit frames.
    #[must_use]
    pub fn fat_tree(k: usize) -> Self {
        Self {
            kind: TopoKind::FatTree { k },
            link_bps: 1.0e9,
            oversub: 1.0,
            delay: Duration::from_secs(1e-6),
            frame_bits: 8_000.0,
        }
    }

    /// A leaf–spine fabric with 1 Gbit/s access links, 1 µs hops,
    /// 8 kbit frames, non-blocking uplinks.
    #[must_use]
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Self {
        Self {
            kind: TopoKind::LeafSpine { leaves, spines, hosts_per_leaf },
            link_bps: 1.0e9,
            oversub: 1.0,
            delay: Duration::from_secs(1e-6),
            frame_bits: 8_000.0,
        }
    }

    /// Number of hosts the fabric attaches.
    #[must_use]
    pub fn hosts(&self) -> usize {
        match self.kind {
            TopoKind::FatTree { k } => k * k * k / 4,
            TopoKind::LeafSpine { leaves, hosts_per_leaf, .. } => leaves * hosts_per_leaf,
        }
    }

    /// Number of switches the fabric uses.
    #[must_use]
    pub fn switches(&self) -> usize {
        match self.kind {
            TopoKind::FatTree { k } => k * k + k * k / 4,
            TopoKind::LeafSpine { leaves, spines, .. } => leaves + spines,
        }
    }

    /// Parses a CLI topology spec: `fat-tree:k=8[,link=1e9][,delay=1e-6]
    /// [,frame=8000]` or `leaf-spine:leaves=16,spines=4,hosts-per-leaf=32
    /// [,oversub=2][,link=...][,delay=...][,frame=...]`.
    ///
    /// # Errors
    ///
    /// Rejects unknown families, unknown keys, unparsable values, and
    /// dimensions [`validate`](Self::validate) refuses.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let (family, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let mut out = match family {
            "fat-tree" => Self::fat_tree(0),
            "leaf-spine" => Self::leaf_spine(0, 0, 0),
            other => {
                return Err(ConfigError::new(
                    "topo",
                    format!("unknown topology `{other}` (expected fat-tree or leaf-spine)"),
                ));
            }
        };
        for item in rest.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = item.split_once('=').ok_or_else(|| {
                ConfigError::new("topo", format!("expected key=value items, got `{item}`"))
            })?;
            let num = || {
                value.parse::<f64>().map_err(|_| {
                    ConfigError::new("topo", format!("{key} expects a number, got `{value}`"))
                })
            };
            let int = || {
                value.parse::<usize>().map_err(|_| {
                    ConfigError::new("topo", format!("{key} expects an integer, got `{value}`"))
                })
            };
            match (&mut out.kind, key) {
                (TopoKind::FatTree { k }, "k") => *k = int()?,
                (TopoKind::LeafSpine { leaves, .. }, "leaves") => *leaves = int()?,
                (TopoKind::LeafSpine { spines, .. }, "spines") => *spines = int()?,
                (TopoKind::LeafSpine { hosts_per_leaf, .. }, "hosts-per-leaf") => {
                    *hosts_per_leaf = int()?;
                }
                (_, "link") => out.link_bps = num()?,
                (_, "oversub") => out.oversub = num()?,
                (_, "delay") => out.delay = Duration::from_secs(num()?),
                (_, "frame") => out.frame_bits = num()?,
                (_, other) => {
                    return Err(ConfigError::new(
                        "topo",
                        format!("unknown key `{other}` for `{family}`"),
                    ));
                }
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Checks the dimensions and physical parameters.
    ///
    /// # Errors
    ///
    /// Rejects odd or tiny fat-tree arity, empty leaf–spine tiers,
    /// non-positive speeds, frames, or oversubscription.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.kind {
            TopoKind::FatTree { k } => {
                if k < 4 || k % 2 != 0 {
                    return Err(ConfigError::new(
                        "topo.k",
                        format!("fat-tree arity must be even and at least 4, got {k}"),
                    ));
                }
            }
            TopoKind::LeafSpine { leaves, spines, hosts_per_leaf } => {
                if leaves == 0 || hosts_per_leaf == 0 {
                    return Err(ConfigError::new(
                        "topo.leaves",
                        "leaf–spine needs at least one leaf with at least one host",
                    ));
                }
                if spines == 0 && leaves > 1 {
                    return Err(ConfigError::new(
                        "topo.spines",
                        "a multi-leaf fabric needs at least one spine",
                    ));
                }
            }
        }
        if !(self.link_bps.is_finite() && self.link_bps > 0.0) {
            return Err(ConfigError::new("topo.link", "link capacity must be positive"));
        }
        if !(self.frame_bits.is_finite() && self.frame_bits > 0.0) {
            return Err(ConfigError::new("topo.frame", "frame size must be positive"));
        }
        if !(self.oversub.is_finite() && self.oversub > 0.0) {
            return Err(ConfigError::new("topo.oversub", "oversubscription must be positive"));
        }
        Ok(())
    }

    /// One link's contribution to a PFC PAUSE threshold: its
    /// bandwidth–delay product (round trip) plus two maximum frames —
    /// the in-flight data a PAUSE issued now cannot recall. A switch's
    /// XOFF point is this summed over its ingress links.
    #[must_use]
    pub fn pfc_threshold_bits(&self, cap_bps: f64) -> f64 {
        cap_bps * 2.0 * self.delay.as_secs() + 2.0 * self.frame_bits
    }

    /// Builds the fabric: hosts, switches (route tables covering every
    /// host), and links. Flows come from a [`Traffic`] pattern via
    /// [`compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`validate`](Self::validate) failures.
    pub fn build(&self) -> Result<Fabric, ConfigError> {
        self.validate()?;
        match self.kind {
            TopoKind::FatTree { k } => Ok(self.build_fat_tree(k)),
            TopoKind::LeafSpine { leaves, spines, hosts_per_leaf } => {
                Ok(self.build_leaf_spine(leaves, spines, hosts_per_leaf))
            }
        }
    }

    fn build_fat_tree(&self, k: usize) -> Fabric {
        let half = k / 2;
        let hosts = k * half * half;
        let hosts_per_pod = half * half;
        let n_edge = k * half;
        let n_agg = k * half;
        let edge = |p: usize, i: usize| p * half + i;
        let agg = |p: usize, j: usize| n_edge + p * half + j;
        let core = |g: usize, m: usize| n_edge + n_agg + g * half + m;
        let mut links = Vec::new();
        // Host access pairs: up-link 2h, down-link 2h+1.
        for h in 0..hosts {
            let e = edge(h / hosts_per_pod, (h % hosts_per_pod) / half);
            links.push(self.link(Endpoint::Host(h), Endpoint::Switch(e), self.link_bps));
            links.push(self.link(Endpoint::Switch(e), Endpoint::Host(h), self.link_bps));
        }
        // Edge <-> aggregation, per pod.
        let mut up_edge_agg = vec![0usize; n_edge * half];
        let mut down_agg_edge = vec![0usize; n_agg * half];
        for p in 0..k {
            for i in 0..half {
                for j in 0..half {
                    up_edge_agg[edge(p, i) * half + j] = links.len();
                    links.push(self.link(
                        Endpoint::Switch(edge(p, i)),
                        Endpoint::Switch(agg(p, j)),
                        self.link_bps,
                    ));
                    down_agg_edge[(p * half + j) * half + i] = links.len();
                    links.push(self.link(
                        Endpoint::Switch(agg(p, j)),
                        Endpoint::Switch(edge(p, i)),
                        self.link_bps,
                    ));
                }
            }
        }
        // Aggregation <-> core: agg (p, j) serves core group j.
        let mut up_agg_core = vec![0usize; n_agg * half];
        let mut down_core_agg = vec![0usize; half * half * k];
        for p in 0..k {
            for j in 0..half {
                for m in 0..half {
                    up_agg_core[(p * half + j) * half + m] = links.len();
                    links.push(self.link(
                        Endpoint::Switch(agg(p, j)),
                        Endpoint::Switch(core(j, m)),
                        self.link_bps,
                    ));
                    down_core_agg[(j * half + m) * k + p] = links.len();
                    links.push(self.link(
                        Endpoint::Switch(core(j, m)),
                        Endpoint::Switch(agg(p, j)),
                        self.link_bps,
                    ));
                }
            }
        }
        // Route tables: deterministic destination-indexed up-paths.
        let n_switches = n_edge + n_agg + half * half;
        let mut switches = Vec::with_capacity(n_switches);
        for si in 0..n_switches {
            let mut routes = Vec::with_capacity(hosts);
            for dst in 0..hosts {
                let (dp, de) = (dst / hosts_per_pod, (dst % hosts_per_pod) / half);
                let link = if si < n_edge {
                    let (p, i) = (si / half, si % half);
                    if dp == p && de == i {
                        2 * dst + 1
                    } else {
                        up_edge_agg[si * half + dst % half]
                    }
                } else if si < n_edge + n_agg {
                    let a = si - n_edge;
                    let p = a / half;
                    if dp == p {
                        down_agg_edge[a * half + de]
                    } else {
                        up_agg_core[a * half + (dst / half) % half]
                    }
                } else {
                    down_core_agg[(si - n_edge - n_agg) * k + dp]
                };
                routes.push((dst, link));
            }
            switches.push(self.switch_spec(routes, &links, Endpoint::Switch(si)));
        }
        Fabric { hosts, switches, links }
    }

    fn build_leaf_spine(&self, leaves: usize, spines: usize, hosts_per_leaf: usize) -> Fabric {
        let hosts = leaves * hosts_per_leaf;
        let uplink_bps = if spines == 0 {
            self.link_bps
        } else {
            self.link_bps * hosts_per_leaf as f64 / (spines as f64 * self.oversub)
        };
        let mut links = Vec::new();
        for h in 0..hosts {
            let leaf = h / hosts_per_leaf;
            links.push(self.link(Endpoint::Host(h), Endpoint::Switch(leaf), self.link_bps));
            links.push(self.link(Endpoint::Switch(leaf), Endpoint::Host(h), self.link_bps));
        }
        let mut up = vec![0usize; leaves * spines];
        let mut down = vec![0usize; spines * leaves];
        for l in 0..leaves {
            for s in 0..spines {
                up[l * spines + s] = links.len();
                links.push(self.link(
                    Endpoint::Switch(l),
                    Endpoint::Switch(leaves + s),
                    uplink_bps,
                ));
                down[s * leaves + l] = links.len();
                links.push(self.link(
                    Endpoint::Switch(leaves + s),
                    Endpoint::Switch(l),
                    uplink_bps,
                ));
            }
        }
        let mut switches = Vec::with_capacity(leaves + spines);
        for l in 0..leaves {
            let mut routes = Vec::with_capacity(hosts);
            for dst in 0..hosts {
                let link = if dst / hosts_per_leaf == l {
                    2 * dst + 1
                } else {
                    up[l * spines + dst % spines]
                };
                routes.push((dst, link));
            }
            switches.push(self.switch_spec(routes, &links, Endpoint::Switch(l)));
        }
        for s in 0..spines {
            let routes =
                (0..hosts).map(|dst| (dst, down[s * leaves + dst / hosts_per_leaf])).collect();
            switches.push(self.switch_spec(routes, &links, Endpoint::Switch(leaves + s)));
        }
        Fabric { hosts, switches, links }
    }

    fn link(&self, from: Endpoint, to: Endpoint, capacity: f64) -> LinkSpec {
        LinkSpec { from, to, capacity, delay: self.delay }
    }

    /// A switch spec with Theorem-1 thresholds summed over ingress
    /// ports: each incoming link contributes `BDP + 2·MTU` (the
    /// in-flight data a PAUSE cannot recall), the XOFF point `qsc` is
    /// that sum, and the buffer doubles it so one full post-PAUSE
    /// round from every ingress still fits above the threshold. A
    /// single-link threshold is too shallow for this engine: PAUSE
    /// re-asserts at most once per hold, and under that refractory a
    /// BDP-deep XOFF point lets upstream line-rate bursts ratchet the
    /// queue into the buffer (measured on the k=4 incast at 4× load;
    /// the summed threshold runs it lossless at 0.998 goodput).
    fn switch_spec(
        &self,
        routes: Vec<(usize, usize)>,
        links: &[LinkSpec],
        me: Endpoint,
    ) -> SwitchSpec {
        let qsc_bits: f64 =
            links.iter().filter(|l| l.to == me).map(|l| self.pfc_threshold_bits(l.capacity)).sum();
        SwitchSpec { buffer_bits: 2.0 * qsc_bits, qsc_bits, routes, cps: Vec::new() }
    }
}

/// A compiled fabric: everything in a [`NetConfig`] except flows and
/// run-control fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    /// Number of attached hosts.
    pub hosts: usize,
    /// The switches, route tables covering every host.
    pub switches: Vec<SwitchSpec>,
    /// The links (host access pairs first: up-link `2h`, down-link
    /// `2h+1`).
    pub links: Vec<LinkSpec>,
}

/// A traffic pattern over a fabric's hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// The cluster-file-system pattern: `senders` hosts answer a
    /// parallel read into host `dst` simultaneously, collectively
    /// offering `load ×` the destination access-link capacity.
    Incast {
        /// Number of responding servers (the first `senders` hosts,
        /// skipping `dst`; `usize::MAX` = every host but `dst`).
        senders: usize,
        /// Receiving host (`usize::MAX` = the last host).
        dst: usize,
        /// Aggregate offered load as a multiple of the destination
        /// link's capacity.
        load: f64,
    },
    /// Host `i` sends to host `(i + hosts/2) mod hosts` — every flow
    /// crosses the fabric, none collide at their destination.
    Permutation {
        /// Per-flow offered load as a fraction of the access-link
        /// capacity.
        load: f64,
    },
    /// Each of the first `hosts` hosts sends to every other.
    AllToAll {
        /// Number of participating hosts.
        hosts: usize,
        /// Aggregate per-destination offered load as a multiple of the
        /// access-link capacity.
        load: f64,
    },
}

impl Traffic {
    /// Parses a CLI traffic spec: `incast[:senders=512][,dst=0]
    /// [,load=2]`, `permutation[:load=0.9]`, or
    /// `all-to-all[:hosts=16][,load=2]`.
    ///
    /// # Errors
    ///
    /// Rejects unknown patterns, unknown keys, and unparsable values.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let (family, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let mut out = match family {
            "incast" => Traffic::Incast { senders: usize::MAX, dst: usize::MAX, load: 2.0 },
            "permutation" => Traffic::Permutation { load: 0.9 },
            "all-to-all" => Traffic::AllToAll { hosts: 8, load: 2.0 },
            other => {
                return Err(ConfigError::new(
                    "traffic",
                    format!(
                        "unknown traffic `{other}` (expected incast, permutation, or all-to-all)"
                    ),
                ));
            }
        };
        for item in rest.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = item.split_once('=').ok_or_else(|| {
                ConfigError::new("traffic", format!("expected key=value items, got `{item}`"))
            })?;
            let num = || {
                value.parse::<f64>().map_err(|_| {
                    ConfigError::new("traffic", format!("{key} expects a number, got `{value}`"))
                })
            };
            let int = || {
                value.parse::<usize>().map_err(|_| {
                    ConfigError::new("traffic", format!("{key} expects an integer, got `{value}`"))
                })
            };
            match (&mut out, key) {
                (Traffic::Incast { senders, .. }, "senders") => *senders = int()?,
                (Traffic::Incast { dst, .. }, "dst") => *dst = int()?,
                (Traffic::AllToAll { hosts, .. }, "hosts") => *hosts = int()?,
                (
                    Traffic::Incast { load, .. }
                    | Traffic::Permutation { load }
                    | Traffic::AllToAll { load, .. },
                    "load",
                ) => *load = num()?,
                (_, other) => {
                    return Err(ConfigError::new(
                        "traffic",
                        format!("unknown key `{other}` for `{family}`"),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Materialises the flow list over `fabric` (unmanaged sources;
    /// install reaction points afterwards if the scenario runs BCN).
    ///
    /// # Errors
    ///
    /// Rejects patterns that do not fit the fabric (more senders than
    /// hosts, out-of-range destination, non-positive load).
    pub fn flows(&self, fabric: &Fabric) -> Result<Vec<NetFlow>, ConfigError> {
        let n = fabric.hosts;
        let flow = |src: usize, dst: usize, rate: f64| NetFlow {
            src_host: src,
            dst_host: dst,
            initial_rate: rate,
            rp: None,
            priority: 0,
        };
        match *self {
            Traffic::Incast { senders, dst, load } => {
                let dst = if dst == usize::MAX { n - 1 } else { dst };
                let senders = if senders == usize::MAX { n - 1 } else { senders };
                if dst >= n {
                    return Err(ConfigError::new(
                        "traffic.dst",
                        format!("destination host {dst} outside 0..{n}"),
                    ));
                }
                if senders == 0 || senders >= n {
                    return Err(ConfigError::new(
                        "traffic.senders",
                        format!("incast needs 1..{n} senders, got {senders}"),
                    ));
                }
                if !(load.is_finite() && load > 0.0) {
                    return Err(ConfigError::new("traffic.load", "load must be positive"));
                }
                let dst_cap = fabric.links[2 * dst + 1].capacity;
                let rate = load * dst_cap / senders as f64;
                Ok((0..n).filter(|&h| h != dst).take(senders).map(|h| flow(h, dst, rate)).collect())
            }
            Traffic::Permutation { load } => {
                if !(load.is_finite() && load > 0.0) {
                    return Err(ConfigError::new("traffic.load", "load must be positive"));
                }
                if n < 2 {
                    return Err(ConfigError::new(
                        "traffic",
                        "permutation needs at least two hosts",
                    ));
                }
                Ok((0..n)
                    .map(|h| {
                        let rate = load * fabric.links[2 * h].capacity;
                        flow(h, (h + n / 2) % n, rate)
                    })
                    .collect())
            }
            Traffic::AllToAll { hosts, load } => {
                if hosts < 2 || hosts > n {
                    return Err(ConfigError::new(
                        "traffic.hosts",
                        format!("all-to-all needs 2..={n} hosts, got {hosts}"),
                    ));
                }
                if !(load.is_finite() && load > 0.0) {
                    return Err(ConfigError::new("traffic.load", "load must be positive"));
                }
                let mut flows = Vec::with_capacity(hosts * (hosts - 1));
                for src in 0..hosts {
                    for dst in 0..hosts {
                        if src != dst {
                            let rate =
                                load * fabric.links[2 * dst + 1].capacity / (hosts - 1) as f64;
                            flows.push(flow(src, dst, rate));
                        }
                    }
                }
                Ok(flows)
            }
        }
    }
}

/// Compiles a fabric plus traffic pattern into a runnable [`NetConfig`]
/// with PAUSE enabled (hold = 40 frame times on the access link) and
/// metrics sampled 500 times over the horizon.
///
/// # Errors
///
/// Propagates spec validation and traffic-fit failures.
pub fn compile(spec: &TopoSpec, traffic: &Traffic, t_end: f64) -> Result<NetConfig, ConfigError> {
    let fabric = spec.build()?;
    let flows = traffic.flows(&fabric)?;
    Ok(NetConfig {
        hosts: fabric.hosts,
        switches: fabric.switches,
        links: fabric.links,
        flows,
        frame_bits: spec.frame_bits,
        t_end: Time::from_secs(t_end),
        record_interval: Duration::from_secs(t_end / 500.0),
        pause: PauseConfig {
            enabled: true,
            hold: Duration::from_secs(10.0 * spec.frame_bits / spec.link_bps),
            per_priority: false,
        },
        faults: FaultConfig::none(),
        scheduler: Scheduler::default(),
    })
}

/// Derives dense per-switch route tables for an irregular fabric from
/// its link list alone: for every destination host, a reverse
/// breadth-first search over the directed links finds the hop distance
/// from each switch, and each switch's next hop is the lowest-indexed
/// outgoing link that decreases the distance. Unreachable destinations
/// are simply omitted (the engine's construction-time validation
/// rejects them only if a flow actually needs one).
///
/// The tie-break makes the result deterministic, and shortest-path
/// next-hops can never revisit a node, so the tables are loop-free by
/// construction.
#[must_use]
pub fn auto_routes(
    hosts: usize,
    n_switches: usize,
    links: &[LinkSpec],
) -> Vec<Vec<(usize, usize)>> {
    // Node ids: switches then hosts.
    let node = |e: Endpoint| match e {
        Endpoint::Switch(s) => s,
        Endpoint::Host(h) => n_switches + h,
    };
    let n_nodes = n_switches + hosts;
    // Reverse adjacency: for each node, the links arriving at it.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (li, l) in links.iter().enumerate() {
        rev[node(l.to)].push(li);
    }
    let mut routes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_switches];
    let mut dist = vec![usize::MAX; n_nodes];
    let mut queue = std::collections::VecDeque::new();
    for dst in 0..hosts {
        dist.fill(usize::MAX);
        queue.clear();
        dist[n_switches + dst] = 0;
        queue.push_back(n_switches + dst);
        while let Some(v) = queue.pop_front() {
            for &li in &rev[v] {
                let u = node(links[li].from);
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        for (si, table) in routes.iter_mut().enumerate() {
            if dist[si] == usize::MAX {
                continue;
            }
            let next = links
                .iter()
                .enumerate()
                .find(|(_, l)| l.from == Endpoint::Switch(si) && dist[node(l.to)] < dist[si])
                .map(|(li, _)| li);
            if let Some(li) = next {
                table.push((dst, li));
            }
        }
    }
    routes
}

/// Re-expresses the hand-wired victim scenario of
/// [`crate::net::victim_topology`] as a generator instance: the same
/// hosts, links, buffers, and flows, with the route tables derived by
/// [`auto_routes`] instead of written by hand. Kept as a regression
/// oracle: the compiled config must produce a bit-identical
/// [`crate::net::NetReport`].
#[must_use]
pub fn victim_fabric(
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    let (mut cfg, victim) = crate::net::victim_topology(
        n_culprits,
        trunk_capacity,
        frame_bits,
        prop,
        t_end,
        pause,
        bcn,
    );
    let routes = auto_routes(cfg.hosts, cfg.switches.len(), &cfg.links);
    for (sw, table) in cfg.switches.iter_mut().zip(routes) {
        // Only sinks are routable (culprits and the victim have no
        // down-links), matching the hand-wired tables entry for entry.
        sw.routes = table;
    }
    (cfg, victim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::splitmix64;
    use crate::net::NetSim;

    #[test]
    fn fat_tree_dimensions() {
        let spec = TopoSpec::fat_tree(4);
        assert_eq!(spec.hosts(), 16);
        assert_eq!(spec.switches(), 20);
        let fabric = spec.build().expect("valid spec");
        assert_eq!(fabric.hosts, 16);
        assert_eq!(fabric.switches.len(), 20);
        // 16 host pairs + 16 edge-agg pairs + 16 agg-core pairs.
        assert_eq!(fabric.links.len(), 2 * 16 + 2 * 16 + 2 * 16);
        // Every switch routes every host.
        for sw in &fabric.switches {
            assert_eq!(sw.routes.len(), 16);
        }
    }

    #[test]
    fn leaf_spine_dimensions_and_oversubscription() {
        let mut spec = TopoSpec::leaf_spine(4, 2, 8);
        spec.oversub = 2.0;
        let fabric = spec.build().expect("valid spec");
        assert_eq!(fabric.hosts, 32);
        assert_eq!(fabric.switches.len(), 6);
        // Uplink capacity = 8 hosts x 1G / (2 spines x oversub 2) = 2G.
        let uplink = fabric
            .links
            .iter()
            .find(|l| matches!((l.from, l.to), (Endpoint::Switch(_), Endpoint::Switch(_))))
            .expect("an uplink");
        assert!((uplink.capacity - 2.0e9).abs() < 1.0, "uplink {}", uplink.capacity);
    }

    /// Walks the route tables from `src` to `dst` and returns the hop
    /// count (switches visited), or why the walk failed: a loop, a
    /// missing route, or delivery to the wrong host.
    fn walk(fabric: &Fabric, src: usize, dst: usize) -> Result<usize, String> {
        let uplink =
            fabric.links.iter().position(|l| l.from == Endpoint::Host(src)).expect("host uplink");
        let mut at = fabric.links[uplink].to;
        let mut hops = 0;
        let mut seen = vec![false; fabric.switches.len()];
        loop {
            match at {
                Endpoint::Host(h) if h == dst => return Ok(hops),
                Endpoint::Host(h) => return Err(format!("{src}->{dst} delivered to host {h}")),
                Endpoint::Switch(si) => {
                    if seen[si] {
                        return Err(format!("{src}->{dst} loops through switch {si}"));
                    }
                    seen[si] = true;
                    hops += 1;
                    let (_, link) = fabric.switches[si]
                        .routes
                        .iter()
                        .find(|(d, _)| *d == dst)
                        .ok_or_else(|| format!("switch {si} lacks a route to {dst}"))?;
                    at = fabric.links[*link].to;
                }
            }
        }
    }

    #[test]
    fn every_fat_tree_host_pair_routes_loop_free() {
        let fabric = TopoSpec::fat_tree(4).build().expect("valid spec");
        for src in 0..fabric.hosts {
            for dst in 0..fabric.hosts {
                if src == dst {
                    continue;
                }
                let hops = walk(&fabric, src, dst).unwrap();
                // Same edge: 1 switch; same pod: 3; cross-pod: 5.
                assert!(hops == 1 || hops == 3 || hops == 5, "{src}->{dst}: {hops} hops");
            }
        }
    }

    #[test]
    fn every_leaf_spine_host_pair_routes_loop_free() {
        let fabric = TopoSpec::leaf_spine(4, 3, 4).build().expect("valid spec");
        for src in 0..fabric.hosts {
            for dst in 0..fabric.hosts {
                if src == dst {
                    continue;
                }
                let hops = walk(&fabric, src, dst).unwrap();
                // Same leaf: 1 switch; cross-leaf: leaf-spine-leaf.
                assert!(hops == 1 || hops == 3, "{src}->{dst}: {hops} hops");
            }
        }
    }

    /// Floyd–Warshall hop distances over the fabric graph (switches and
    /// hosts as nodes, directed links as unit edges) — the independent
    /// reference the route tables must agree with.
    fn floyd_warshall(fabric: &Fabric) -> Vec<Vec<usize>> {
        let s = fabric.switches.len();
        let n = s + fabric.hosts;
        let idx = |e: Endpoint| match e {
            Endpoint::Switch(i) => i,
            Endpoint::Host(h) => s + h,
        };
        const INF: usize = usize::MAX / 4;
        let mut d = vec![vec![INF; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0;
        }
        for l in &fabric.links {
            d[idx(l.from)][idx(l.to)] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        d
    }

    /// The `k`-th uniform draw in `[0, 1)` of the case seeded `seed`.
    fn unit(seed: u64, k: u64) -> f64 {
        (splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The seeds of 24 random cases of the test salted `salt`.
    fn case_seeds(salt: u64) -> impl Iterator<Item = u64> {
        (0..24u64).map(move |case| splitmix64(salt ^ splitmix64(case)))
    }

    /// A small fabric drawn from `seed`: a leaf–spine with 1–4 leaves,
    /// 1–3 spines, 1–5 hosts per leaf and 0.5–4× oversubscription, or
    /// a fat-tree with k = 4 or 6.
    fn random_small_spec(seed: u64) -> TopoSpec {
        let pick = |k: u64, n: u64| (splitmix64(seed ^ splitmix64(k)) % n) as usize;
        if pick(0, 2) == 0 {
            let mut spec = TopoSpec::leaf_spine(1 + pick(1, 4), 1 + pick(2, 3), 1 + pick(3, 5));
            spec.oversub = 0.5 + 3.5 * unit(seed, 4);
            spec
        } else {
            TopoSpec::fat_tree(4 + 2 * pick(5, 2))
        }
    }

    /// Every host pair routes loop-free, and the route tables realise
    /// exactly the Floyd–Warshall shortest-path distance (single-path
    /// ECMP never detours), on two fixed fabrics and 24 random small
    /// ones.
    #[test]
    fn route_tables_agree_with_floyd_warshall() {
        let fixed = [TopoSpec::fat_tree(4), TopoSpec::leaf_spine(3, 2, 3)]
            .map(|spec| ("fixed spec".to_string(), spec));
        let drawn =
            case_seeds(0x70b0).map(|seed| (format!("seed {seed:#x}"), random_small_spec(seed)));
        for (case, spec) in fixed.into_iter().chain(drawn) {
            let fabric = spec.build().unwrap_or_else(|e| panic!("{case} ({spec:?}): {e}"));
            let d = floyd_warshall(&fabric);
            let s = fabric.switches.len();
            for src in 0..fabric.hosts {
                for dst in 0..fabric.hosts {
                    if src == dst {
                        continue;
                    }
                    // Table path = access hop + switch hops + final hop.
                    let hops = walk(&fabric, src, dst)
                        .unwrap_or_else(|e| panic!("{case} ({spec:?}): {e}"))
                        + 1;
                    assert_eq!(
                        hops,
                        d[s + src][s + dst],
                        "{case} ({spec:?}): {src}->{dst}: table path {hops} vs shortest {}",
                        d[s + src][s + dst]
                    );
                }
            }
        }
    }

    /// The PFC XOFF contribution grows with the link BDP — along fixed
    /// capacity and delay sweeps, and between 24 random pairs of
    /// capacities (0.1–40 Gb/s) and delays (0.1–20 µs) — and keeps its
    /// 2-MTU floor for random frames of 1–16 kbit.
    #[test]
    fn pfc_thresholds_are_monotone_in_bdp() {
        let base = TopoSpec::fat_tree(4);
        let mut q_prev = 0.0;
        for scale in [0.5, 1.0, 2.0, 4.0] {
            let mut spec = base.clone();
            spec.link_bps = 1.0e9 * scale;
            let q = spec.pfc_threshold_bits(spec.link_bps);
            assert!(q > q_prev, "threshold must grow with capacity: {q} after {q_prev}");
            q_prev = q;
        }
        q_prev = 0.0;
        for delay_us in [0.5, 1.0, 2.0, 4.0] {
            let mut spec = base.clone();
            spec.delay = Duration::from_secs(delay_us * 1e-6);
            let q = spec.pfc_threshold_bits(spec.link_bps);
            assert!(q > q_prev, "threshold must grow with delay: {q} after {q_prev}");
            q_prev = q;
        }
        for seed in case_seeds(0xbdb0) {
            let [cap_a, cap_b] = [0, 1].map(|k| 1e8 + (4e10 - 1e8) * unit(seed, k));
            let [delay_a, delay_b] = [2, 3].map(|k| 0.1 + 19.9 * unit(seed, k));
            let frame = 1_000.0 + 15_000.0 * unit(seed, 4);
            let spec_at = |delay_us: f64| {
                let mut spec = TopoSpec::leaf_spine(2, 2, 2);
                spec.delay = Duration::from_secs(delay_us * 1e-6);
                spec.frame_bits = frame;
                spec
            };
            let lo = spec_at(delay_a.min(delay_b)).pfc_threshold_bits(cap_a.min(cap_b));
            let hi = spec_at(delay_a.max(delay_b)).pfc_threshold_bits(cap_a.max(cap_b));
            let at = format!(
                "seed {seed:#x} (capacities {cap_a}, {cap_b}; delays {delay_a}, {delay_b} us; \
                 frame {frame})"
            );
            assert!(lo <= hi, "{at}: threshold fell as BDP grew: {lo} > {hi}");
            assert!(lo >= 2.0 * frame, "{at}: threshold below the 2-MTU floor: {lo}");
        }
    }

    #[test]
    fn compiled_buffers_keep_pause_lossless() {
        // A 16-into-1 incast on a compiled fat-tree must drop nothing:
        // the Theorem-1 thresholds pause the sources before any port
        // buffer overflows.
        let spec = TopoSpec::fat_tree(4);
        let traffic = Traffic::Incast { senders: 8, dst: usize::MAX, load: 4.0 };
        let cfg = compile(&spec, &traffic, 0.02).expect("compile");
        let report = NetSim::new(cfg).run();
        let drops: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
        assert_eq!(drops, 0, "PFC-thresholded fabric must stay lossless");
        assert!(report.pause_counts.iter().sum::<u64>() > 0, "incast must trigger PAUSE");
        let delivered: f64 = report.flows.iter().map(|f| f.delivered_bits).sum();
        assert!(delivered > 0.0);
    }

    #[test]
    fn spec_parser_round_trips() {
        let spec = TopoSpec::parse("fat-tree:k=8,link=1e9,delay=2e-6,frame=12000").expect("parse");
        assert_eq!(spec.kind, TopoKind::FatTree { k: 8 });
        assert_eq!(spec.link_bps, 1e9);
        assert_eq!(spec.delay, Duration::from_secs(2e-6));
        assert_eq!(spec.frame_bits, 12_000.0);
        let spec = TopoSpec::parse("leaf-spine:leaves=16,spines=4,hosts-per-leaf=32,oversub=2")
            .expect("parse");
        assert_eq!(spec.kind, TopoKind::LeafSpine { leaves: 16, spines: 4, hosts_per_leaf: 32 });
        assert_eq!(spec.oversub, 2.0);
        for bad in [
            "ring:k=4",
            "fat-tree:k=3",
            "fat-tree:k",
            "fat-tree:k=4,bogus=1",
            "leaf-spine:leaves=0",
            "leaf-spine:leaves=2,spines=0,hosts-per-leaf=4",
            "fat-tree:k=4,link=-1",
        ] {
            assert!(TopoSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn traffic_parser_and_flows() {
        let fabric = TopoSpec::leaf_spine(2, 1, 4).build().expect("build");
        let t = Traffic::parse("incast:senders=5,load=2").expect("parse");
        let flows = t.flows(&fabric).expect("flows");
        assert_eq!(flows.len(), 5);
        assert!(flows.iter().all(|f| f.dst_host == 7));
        let agg: f64 = flows.iter().map(|f| f.initial_rate).sum();
        assert!((agg - 2.0e9).abs() < 1.0, "aggregate offered {agg}");
        let t = Traffic::parse("permutation:load=0.5").expect("parse");
        let flows = t.flows(&fabric).expect("flows");
        assert_eq!(flows.len(), 8);
        assert!(flows.iter().all(|f| f.dst_host == (f.src_host + 4) % 8));
        let t = Traffic::parse("all-to-all:hosts=3,load=1").expect("parse");
        assert_eq!(t.flows(&fabric).expect("flows").len(), 6);
        // Without `senders`, every host but the destination sends.
        let flows = Traffic::parse("incast").expect("parse").flows(&fabric).expect("flows");
        assert_eq!(flows.len(), 7);
        for bad in ["storm", "incast:senders=0", "incast:senders=99", "incast:bogus=1"] {
            let t = Traffic::parse(bad);
            assert!(t.is_err() || t.unwrap().flows(&fabric).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn victim_fabric_matches_the_hand_wired_topology() {
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * 8_000.0 / 1e9),
            per_priority: false,
        };
        let (legacy, v1) = crate::net::victim_topology(
            4,
            1e9,
            8_000.0,
            Duration::from_secs(1e-6),
            0.05,
            pause,
            None,
        );
        let (generated, v2) =
            victim_fabric(4, 1e9, 8_000.0, Duration::from_secs(1e-6), 0.05, pause, None);
        assert_eq!(v1, v2);
        assert_eq!(generated, legacy, "auto-routed victim config must equal the hand wiring");
        let a = NetSim::new(legacy).run();
        let b = NetSim::new(generated).run();
        assert_eq!(a, b, "generator and legacy wiring must produce bit-identical reports");
    }

    #[test]
    fn single_switch_incast_16_matches_hand_wiring() {
        // The incast-16 scenario as a generator instance (one leaf, one
        // spine, 17 hosts; all traffic stays on the leaf) against the
        // same scenario wired by hand.
        let spec = TopoSpec::leaf_spine(1, 1, 17);
        let traffic = Traffic::Incast { senders: 16, dst: usize::MAX, load: 4.0 };
        let generated = compile(&spec, &traffic, 0.02).expect("compile");
        let mut hand = generated.clone();
        // Hand-wire the leaf's routes exactly as the generator lays
        // them out: direct down-link per host.
        hand.switches[0].routes = (0..17).map(|h| (h, 2 * h + 1)).collect();
        assert_eq!(hand, generated);
        let a = NetSim::new(hand).run();
        let b = NetSim::new(generated).run();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_routes_omit_unreachable_destinations() {
        // Hosts 0 and 1 feed a switch that only reaches host 2.
        let links = vec![
            LinkSpec {
                from: Endpoint::Host(0),
                to: Endpoint::Switch(0),
                capacity: 1e9,
                delay: Duration::from_secs(1e-6),
            },
            LinkSpec {
                from: Endpoint::Host(1),
                to: Endpoint::Switch(0),
                capacity: 1e9,
                delay: Duration::from_secs(1e-6),
            },
            LinkSpec {
                from: Endpoint::Switch(0),
                to: Endpoint::Host(2),
                capacity: 1e9,
                delay: Duration::from_secs(1e-6),
            },
        ];
        let routes = auto_routes(3, 1, &links);
        assert_eq!(routes[0], vec![(2, 2)], "only the sink is routable");
    }
}
