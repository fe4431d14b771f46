//! Frames on the wire: data and BCN messages.

/// Identifier of a source / reaction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// Identifier of a congestion point (the paper's CPID field; in the real
/// frame a 64-bit quantity carrying the switch interface MAC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpId(pub u64);

/// A data frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFrame {
    /// Sending source.
    pub src: SourceId,
    /// Frame length in bits (header + payload).
    pub bits: f64,
    /// The rate-regulator tag: present once the source has been
    /// associated with a congestion point by a negative BCN message
    /// (paper Section II-B). Carries the CPID the source is regulating
    /// against.
    pub rrt: Option<CpId>,
}

/// The feedback content of a BCN message (the paper's Fig. 2 frame: DA,
/// SA, EtherType, CPID, FB — only the fields the control loop consumes
/// are modelled; the 64-byte wire size is accounted for in bandwidth
/// terms by the engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcnMessage {
    /// Destination reaction point (the sampled frame's source — the DA
    /// field).
    pub dst: SourceId,
    /// Originating congestion point (CPID field).
    pub cpid: CpId,
    /// The congestion measure `sigma` (FB field), in the congestion
    /// point's normalised units; positive means "speed up".
    pub sigma: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SourceId(1));
        set.insert(SourceId(1));
        assert_eq!(set.len(), 1);
        assert!(SourceId(1) < SourceId(2));
    }

    #[test]
    fn data_frame_starts_untagged() {
        let f = DataFrame { src: SourceId(3), bits: 12_000.0, rrt: None };
        assert!(f.rrt.is_none());
    }
}
