//! # pbp-optim
//!
//! Optimizers and delay-mitigation methods from *"Pipelined
//! Backpropagation at Scale"* (Kosson et al., MLSYS 2021):
//!
//! * SGD with momentum ([`SgdmState`]); Nesterov momentum is spike
//!   compensation at `a = m, b = 1` ([`SpikeCoeffs`], Section 3.5);
//! * **Spike Compensation** (Section 3.2): a modified weight update
//!   `w ← w − η(a·v + b·g)` whose default coefficients `a = m^D`,
//!   `b = (1−m^D)/(1−m)` re-apply the updates a delayed gradient missed;
//! * **Linear Weight Prediction** (Section 3.3): forward weights predicted
//!   `T` steps ahead, in the velocity form `ŵ = w − ηT·v` (Eq. 18) or the
//!   weight-difference form `ŵ = w + T(w − w_prev)` (Eq. 19);
//! * their **combination** (Section 3.4) and the **SpecTrain** baseline
//!   (Appendix C) with vertically synchronized horizons and backward
//!   re-prediction;
//! * **gradient shrinking** (Zhuang et al., 2019) as an extra baseline;
//! * the batch-size **hyperparameter scaling rules** (Eq. 9) that map a
//!   reference (η, m, N) to update-size-one training.
//!
//! The central type is [`StageOptimizer`]: one per pipeline stage, owning
//! that stage's velocity and exposing the three operations the pipeline
//! engines compose — forward-weight prediction, backward-weight prediction
//! and the (possibly spike-compensated) update step.

mod adam;
mod hyper;
mod lwp;
mod mitigation;
mod sgdm;
mod spike;
mod stage_opt;

pub use adam::AdamState;
pub use hyper::{scale_hyperparams, Hyperparams, LrSchedule};
pub use lwp::{predict_velocity_form, predict_weight_form, LwpForm};
pub use mitigation::{Mitigation, StageConfig};
pub use sgdm::SgdmState;
pub use spike::SpikeCoeffs;
pub use stage_opt::StageOptimizer;
