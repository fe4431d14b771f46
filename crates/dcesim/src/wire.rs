//! BCN message wire format (paper Fig. 2).
//!
//! The paper's Fig. 2 lays out the BCN frame: destination address (the
//! sampled frame's source), source address (the switch), an 802.1Q VLAN
//! tag for coexistence with BCN-unaware switches, the BCN EtherType, the
//! congestion-point identifier (CPID — "should at least include the MAC
//! address of the switch interface"), and the FB field carrying the
//! congestion measure `sigma`. This module is an executable rendition of
//! that figure: fixed-offset encode/decode with the FB field quantized
//! to a signed fixed-point value, plus the quantization helpers used by
//! the feedback-precision ablation.

use crate::frame::{BcnMessage, CpId, SourceId};

/// Total encoded size of a BCN message body in bytes:
/// DA(6) + SA(6) + 802.1Q(4) + EtherType(2) + CPID(8) + FB(4).
pub const BCN_FRAME_BYTES: usize = 30;

/// The (unassigned, documentation-value) EtherType used to mark BCN
/// messages.
pub const BCN_ETHERTYPE: u16 = 0x8948;

/// The 802.1Q Tag Protocol Identifier.
pub const TPID_8021Q: u16 = 0x8100;

/// Errors raised when decoding a BCN frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The byte slice is shorter than [`BCN_FRAME_BYTES`].
    Truncated {
        /// Bytes available.
        len: usize,
    },
    /// The EtherType field does not mark a BCN message.
    WrongEtherType {
        /// The value found.
        found: u16,
    },
    /// The 802.1Q tag is missing (required for BCN-unaware coexistence).
    MissingVlanTag,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { len } => {
                write!(f, "frame truncated: {len} bytes, need {BCN_FRAME_BYTES}")
            }
            WireError::WrongEtherType { found } => {
                write!(f, "ethertype {found:#06x} is not a BCN message")
            }
            WireError::MissingVlanTag => write!(f, "802.1q vlan tag missing"),
        }
    }
}

impl std::error::Error for WireError {}

/// Fixed-point scale of the FB field: `sigma` is carried in units of
/// this many bits of queue (64 bytes), giving ±2^31 * 512 bits ≈ ±1 Tbit
/// of range — far beyond any real buffer.
pub const FB_UNIT_BITS: f64 = 512.0;

/// Encodes a BCN message into its Fig. 2 wire form.
///
/// The reaction-point address is synthesised from the [`SourceId`] (the
/// simulator's hosts do not carry full MACs); the switch address is
/// derived from the CPID's low bytes exactly as the paper prescribes the
/// CPID to contain the switch interface MAC.
#[must_use]
pub fn encode(msg: &BcnMessage) -> [u8; BCN_FRAME_BYTES] {
    let mut out = [0u8; BCN_FRAME_BYTES];
    // DA: the sampled frame's source (locally administered unicast MAC).
    out[0] = 0x02;
    out[2..6].copy_from_slice(&msg.dst.0.to_be_bytes());
    // SA: switch interface MAC from the CPID low 6 bytes.
    let cpid = msg.cpid.0.to_be_bytes();
    out[6] = 0x02;
    out[7..12].copy_from_slice(&cpid[3..8]);
    // 802.1Q tag: TPID + priority 6 (network control), VID 1.
    out[12..14].copy_from_slice(&TPID_8021Q.to_be_bytes());
    out[14..16].copy_from_slice(&(0xC001u16).to_be_bytes());
    // EtherType.
    out[16..18].copy_from_slice(&BCN_ETHERTYPE.to_be_bytes());
    // CPID, 8 bytes.
    out[18..26].copy_from_slice(&cpid);
    // FB: sigma quantized to signed fixed point, saturating.
    let fb =
        (msg.sigma / FB_UNIT_BITS).round().clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32;
    out[26..30].copy_from_slice(&fb.to_be_bytes());
    out
}

/// Decodes a Fig. 2 wire frame back into a [`BcnMessage`].
///
/// # Errors
///
/// Returns [`WireError`] on short input, a missing VLAN tag, or a
/// foreign EtherType.
pub fn decode(bytes: &[u8]) -> Result<BcnMessage, WireError> {
    if bytes.len() < BCN_FRAME_BYTES {
        return Err(WireError::Truncated { len: bytes.len() });
    }
    let tpid = u16::from_be_bytes([bytes[12], bytes[13]]);
    if tpid != TPID_8021Q {
        return Err(WireError::MissingVlanTag);
    }
    let ethertype = u16::from_be_bytes([bytes[16], bytes[17]]);
    if ethertype != BCN_ETHERTYPE {
        return Err(WireError::WrongEtherType { found: ethertype });
    }
    let dst = SourceId(u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]));
    let mut cpid = [0u8; 8];
    cpid.copy_from_slice(&bytes[18..26]);
    let fb = i32::from_be_bytes([bytes[26], bytes[27], bytes[28], bytes[29]]);
    Ok(BcnMessage {
        dst,
        cpid: CpId(u64::from_be_bytes(cpid)),
        sigma: f64::from(fb) * FB_UNIT_BITS,
    })
}

/// Quantizes a raw `sigma` (bits) to a signed field of `bits` width with
/// saturating range `±range_bits` — the precision knob of the FB field
/// (QCN pushed this to 6 bits; the ablation experiment sweeps it).
///
/// # Panics
///
/// Panics unless `2 <= bits <= 32` and `range_bits > 0`.
#[must_use]
pub fn quantize_sigma(sigma: f64, bits: u32, range_bits: f64) -> f64 {
    assert!((2..=32).contains(&bits), "field width must be 2..=32 bits");
    assert!(range_bits > 0.0, "range must be positive");
    let levels = f64::from((1u32 << (bits - 1)) - 1); // symmetric signed range
    let norm = (sigma / range_bits).clamp(-1.0, 1.0);
    (norm * levels).round() / levels * range_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sigma: f64) -> BcnMessage {
        BcnMessage { dst: SourceId(0x0A0B_0C0D), cpid: CpId(0x1122_3344_5566_7788), sigma }
    }

    #[test]
    fn roundtrip_preserves_fields() {
        for sigma in [-1.5e6, -512.0, 0.0, 512.0, 2.3e6] {
            let m = msg(sigma);
            let decoded = decode(&encode(&m)).unwrap();
            assert_eq!(decoded.dst, m.dst);
            assert_eq!(decoded.cpid, m.cpid);
            // FB quantizes to the 512-bit unit.
            assert!(
                (decoded.sigma - m.sigma).abs() <= FB_UNIT_BITS / 2.0,
                "sigma {sigma} -> {}",
                decoded.sigma
            );
        }
    }

    #[test]
    fn polarity_survives_quantization_for_meaningful_sigma() {
        let m = msg(-700.0);
        assert!(decode(&encode(&m)).unwrap().sigma <= 0.0);
        let m = msg(700.0);
        assert!(decode(&encode(&m)).unwrap().sigma > 0.0);
    }

    #[test]
    fn single_bit_corruption_never_panics_and_stays_decodable_or_rejected() {
        // The fault layer flips arbitrary bits in transit; the codec
        // must survive every one of them. Exhaustive over all 240
        // single-bit flips of a representative frame: decode either
        // rejects the frame with a typed error or yields a message
        // whose fields are still sane enough to re-encode.
        let base = encode(&msg(1.5e6));
        for pos in 0..BCN_FRAME_BYTES {
            for bit in 0..8u8 {
                let mut bytes = base;
                bytes[pos] ^= 1u8 << bit;
                match decode(&bytes) {
                    Ok(m) => {
                        assert!(m.sigma.is_finite(), "byte {pos} bit {bit}");
                        let _ = encode(&m);
                    }
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "byte {pos} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn decode_rejects_short_frames() {
        let err = decode(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { len: 10 }));
    }

    #[test]
    fn decode_rejects_foreign_frames() {
        let mut bytes = encode(&msg(0.0));
        bytes[16] = 0x08; // EtherType -> IPv4-ish
        bytes[17] = 0x00;
        assert!(matches!(decode(&bytes), Err(WireError::WrongEtherType { .. })));
        let mut bytes = encode(&msg(0.0));
        bytes[12] = 0;
        bytes[13] = 0;
        assert!(matches!(decode(&bytes), Err(WireError::MissingVlanTag)));
    }

    #[test]
    fn sa_carries_switch_mac_from_cpid() {
        let bytes = encode(&msg(0.0));
        // CPID low five bytes land in the SA field (after the local bit).
        assert_eq!(&bytes[7..12], &[0x44, 0x55, 0x66, 0x77, 0x88]);
    }

    #[test]
    fn fb_saturates_instead_of_wrapping() {
        let m = msg(1e18);
        let decoded = decode(&encode(&m)).unwrap();
        assert!(decoded.sigma > 0.0);
        assert!(decoded.sigma < 2e12, "saturated, not wrapped: {}", decoded.sigma);
    }

    #[test]
    fn quantizer_grids_and_saturates() {
        // 6-bit field (QCN's choice): 31 positive levels.
        let range = 1.0e6;
        let q = quantize_sigma(123_456.0, 6, range);
        let levels = 31.0;
        let steps = q / range * levels;
        assert!((steps - steps.round()).abs() < 1e-9, "off grid: {q}");
        assert_eq!(quantize_sigma(9.0e9, 6, range), range);
        assert_eq!(quantize_sigma(-9.0e9, 6, range), -range);
        // Sign preserved for values above half a step.
        assert!(quantize_sigma(range / 31.0, 6, range) > 0.0);
    }

    #[test]
    #[should_panic(expected = "field width")]
    fn quantizer_rejects_silly_widths() {
        let _ = quantize_sigma(0.0, 1, 1.0);
    }

    #[test]
    fn congestion_point_messages_survive_the_wire() {
        // End-to-end: a real congestion point's messages, encoded to the
        // Fig. 2 frame and decoded back, drive the reaction point the
        // same way (up to FB fixed-point rounding).
        use crate::cp::{CongestionPoint, CpConfig};
        use crate::frame::DataFrame;
        let mut cp = CongestionPoint::new(CpConfig {
            cpid: CpId(0xAABB_CCDD_EEFF_0011),
            q0_bits: 100_000.0,
            qsc_bits: 400_000.0,
            w: 2.0,
            sample_every: 1,
            fb_quant: None,
            gate_positive: false,
        });
        let mut produced = 0;
        for (q, src) in [(250_000.0, 1u32), (40_000.0, 2), (180_000.0, 3)] {
            let frame = DataFrame { src: SourceId(src), bits: 12_000.0, rrt: None };
            if let Some(m) = cp.on_arrival(&frame, q) {
                produced += 1;
                let rt = decode(&encode(&m)).unwrap();
                assert_eq!(rt.dst, m.dst);
                assert_eq!(rt.cpid, m.cpid);
                assert!((rt.sigma - m.sigma).abs() <= FB_UNIT_BITS / 2.0);
                assert_eq!(rt.sigma > 0.0, m.sigma > 0.0);
            }
        }
        assert!(produced >= 2, "expected multiple messages, got {produced}");
    }
}
