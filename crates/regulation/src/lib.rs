//! # sc-regulation
//!
//! The non-technical side of the paper: [`icp`] models §2's bilateral
//! ecosystem (TCA registration, MIIT database, slow MPS/MSS enforcement,
//! whitelist review on demand), and [`survey`] reproduces the Figure-3
//! survey of 371 Tsinghua scholars.

#![warn(missing_docs)]

pub mod icp;
pub mod survey;

pub use icp::{
    EnforcementStatus, IcpRecord, RegistrationDossier, RegistrationStatus, Regulator,
    scholarcloud_dossier,
};
pub use survey::{AccessMethod, Response, SurveyDistribution, SurveyTabulation, sample_population};
