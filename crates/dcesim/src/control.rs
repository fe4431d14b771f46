//! The control-law seam of both packet engines. A congestion point (CP)
//! samples a queue and a reaction point (RP) at each source applies the
//! rate law (the paper's Fig. 1; QCN keeps the split). Engines hold an
//! `Option<PortCp>` per queue (`None`: no CP), a `FlowRp` per flow, and
//! move `Feedback` events, so neither matches on the scheme. Enums, not
//! trait objects, keep each step loop one inlined monomorph.

use telemetry::Telemetry;

use crate::cp::CongestionPoint;
use crate::faults::{FaultPlan, FeedbackFate};
use crate::frame::{BcnMessage, CpId, DataFrame, SourceId};
use crate::qcn::{QcnCp, QcnFeedback, QcnRp};
use crate::rp::ReactionPoint;
use crate::sim::Control;
use crate::time::Duration;

pub(crate) enum PortCp {
    Bcn(CongestionPoint),
    Qcn(QcnCp),
}

impl PortCp {
    pub(crate) fn new(control: &Control) -> Option<Self> {
        match control {
            Control::Bcn { cp, .. } => Some(PortCp::Bcn(CongestionPoint::new(*cp))),
            Control::Qcn { cp, .. } => Some(PortCp::Qcn(QcnCp::new(*cp))),
            Control::None => None,
        }
    }

    /// Samples an accepted arrival (`q_bits` after enqueue).
    #[inline]
    pub(crate) fn on_arrival(&mut self, frame: &DataFrame, q_bits: f64) -> Option<Feedback> {
        match self {
            PortCp::Bcn(cp) => cp.on_arrival(frame, q_bits).map(Feedback::bcn),
            PortCp::Qcn(cp) => cp.on_arrival(frame.src, q_bits).map(Feedback::Qcn),
        }
    }

    #[inline]
    pub(crate) fn on_departure(&mut self, bits: f64) {
        if let PortCp::Bcn(cp) = self {
            cp.on_departure(bits);
        }
    }

    /// BCN's PAUSE threshold `q_sc`; QCN has none.
    pub(crate) fn qsc_bits(&self) -> Option<f64> {
        match self {
            PortCp::Bcn(cp) => Some(cp.config().qsc_bits),
            PortCp::Qcn(_) => None,
        }
    }

    #[inline]
    pub(crate) fn should_pause(&self, q_bits: f64) -> bool {
        matches!(self, PortCp::Bcn(cp) if cp.should_pause(q_bits))
    }
}

pub(crate) enum FlowRp {
    Bcn(ReactionPoint),
    Qcn(QcnRp),
    /// An unmanaged source, sending at this rate throughout.
    Fixed(f64),
}

impl FlowRp {
    pub(crate) fn new(control: &Control, initial_rate: f64) -> Self {
        match control {
            Control::Bcn { rp, .. } => FlowRp::Bcn(ReactionPoint::new(*rp, initial_rate)),
            Control::Qcn { rp, .. } => FlowRp::Qcn(QcnRp::new(*rp, initial_rate)),
            Control::None => FlowRp::Fixed(initial_rate),
        }
    }

    #[inline]
    pub(crate) fn rate(&self) -> f64 {
        match self {
            FlowRp::Bcn(rp) => rp.rate(),
            FlowRp::Qcn(rp) => rp.rate(),
            FlowRp::Fixed(rate) => *rate,
        }
    }

    /// The rate-regulator tag the flow's frames carry (BCN only).
    #[inline]
    pub(crate) fn associated_cp(&self) -> Option<CpId> {
        match self {
            FlowRp::Bcn(rp) => rp.associated_cp(),
            _ => None,
        }
    }

    /// Applies delivered feedback; `false` (the message dies) when this
    /// regulator takes none of that kind.
    pub(crate) fn on_feedback(&mut self, fb: &Feedback) -> bool {
        match (self, fb) {
            (FlowRp::Bcn(rp), &Feedback::Bcn { dst, cpid, sigma }) => {
                rp.on_bcn(&BcnMessage { dst, cpid, sigma });
            }
            (FlowRp::Qcn(rp), Feedback::Qcn(fb)) => rp.on_feedback(fb),
            _ => return false,
        }
        true
    }

    #[inline]
    pub(crate) fn on_bits_sent(&mut self, bits: f64) {
        if let FlowRp::Qcn(rp) = self {
            rp.on_bits_sent(bits);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Feedback {
    /// A `BcnMessage`'s fields, inline so that the tag packs beside
    /// `dst` and a feedback event is no larger than a data frame's.
    Bcn {
        dst: SourceId,
        cpid: CpId,
        sigma: f64,
    },
    Qcn(QcnFeedback),
}

impl Feedback {
    fn bcn(BcnMessage { dst, cpid, sigma }: BcnMessage) -> Self {
        Feedback::Bcn { dst, cpid, sigma }
    }

    pub(crate) fn dst(&self) -> SourceId {
        match self {
            Feedback::Bcn { dst, .. } => *dst,
            Feedback::Qcn(fb) => fb.dst,
        }
    }

    /// Sends the message through the fault layer, noting in `tel` at
    /// time `t` each fault class that fires; returns the feedback to
    /// deliver and its extra latency, or `None` if lost. Only BCN frames
    /// cross the faulted wire; QCN feedback passes untouched.
    pub(crate) fn through(
        self,
        faults: &mut FaultPlan,
        tel: Option<&mut Telemetry>,
        t: f64,
    ) -> Option<(Self, Duration)> {
        let Feedback::Bcn { dst, cpid, sigma } = self else { return Some((self, Duration::ZERO)) };
        let (fate, fired) = faults.feedback_fate(&BcnMessage { dst, cpid, sigma });
        if let Some(tel) = tel {
            fired.for_each(|class| tel.fault_injected(t, class, dst.0));
        }
        match fate {
            FeedbackFate::Deliver { msg, extra } => Some((Self::bcn(msg), extra)),
            FeedbackFate::Lost => None,
        }
    }

    pub(crate) fn record(&self, tel: &mut Telemetry, t: f64) {
        match self {
            Feedback::Bcn { dst, sigma, .. } => tel.bcn_message(t, *sigma, dst.0),
            Feedback::Qcn(fb) => tel.qcn_message(t, fb.fb, fb.dst.0),
        }
    }
}
